"""Property-based tests for the selective data acquisition optimizer.

The exact solver is checked three ways on every instance: against an
independent fine-grained greedy (it must never be worse), by its KKT
conditions recomputed here from one-sided derivatives, and by the duality
gap it reports.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import optimize_allocation, round_allocation, solve_kkt
from repro.core.problem import SelectiveAcquisitionProblem
from tests.core.optimizer_oracle import solve_greedy

#: Tolerances of the certificate checks.
TOLERANCE = 1e-9
#: How close ``L_i / A`` must be to 1 for a slice to count as on the kink.
KINK_TOLERANCE = 1e-12


def floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


@st.composite
def problems(draw):
    """Random instances, plus the shapes the solver must handle explicitly:
    a budget that one slice can absorb whole (``cap``), a budget below one
    example's cost (``tiny``) and an empty slice (``empty``)."""
    n = draw(st.integers(min_value=2, max_value=8))
    shape = draw(st.sampled_from(["random", "cap", "tiny", "empty"]))
    sizes = draw(st.lists(st.integers(10, 500), min_size=n, max_size=n))
    costs = draw(st.lists(floats(0.5, 3.0), min_size=n, max_size=n))
    b = draw(st.lists(floats(0.2, 10.0), min_size=n, max_size=n))
    a = draw(st.lists(floats(0.05, 1.2), min_size=n, max_size=n))
    budget = draw(floats(10.0, 2000.0))
    lam = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    if shape == "cap":
        # One small, steep, high-loss slice and a small budget.
        sizes[0], b[0], a[0] = 10, 10.0, 1.2
        budget = draw(floats(1.0, 20.0))
    elif shape == "tiny":
        budget = draw(floats(0.01, 0.99)) * min(costs)
    elif shape == "empty":
        sizes[draw(st.integers(0, n - 1))] = 0
    return SelectiveAcquisitionProblem(
        slice_names=tuple(f"s{i}" for i in range(n)),
        sizes=np.array(sizes, dtype=float),
        costs=np.array(costs),
        b=np.array(b),
        a=np.array(a),
        budget=budget,
        lam=lam,
    )


def kkt_residual(problem: SelectiveAcquisitionProblem, allocation, mu) -> float:
    """Largest violation of stationarity, relative to ``mu * C(s_i)``.

    With ``phi_i(d) = f_i(d) + mu * C(s_i) * d``, an optimal ``d_i`` has
    ``phi_i'(d-) <= 0`` unless it sits at its lower bound and
    ``phi_i'(d+) >= 0`` unless it takes the whole budget.  An empty slice
    left without data is a discrete choice, not a stationary point, and is
    skipped; one that is funded has the lower bound ``1 - |s_i|``.
    """
    average = problem.average_current_loss()
    residual = 0.0
    for i in range(problem.n_slices):
        size, d, cost = problem.sizes[i], allocation[i], problem.costs[i]
        if size < 1.0 and d == 0.0:
            continue
        lower = max(1.0 - size, 0.0)
        upper = problem.budget / cost
        x = max(size + d, 1.0)
        a, b = problem.a[i], problem.b[i]
        ratio = b * x**-a / average
        slope = a * b * x ** (-a - 1.0)
        penalised = 1.0 + problem.lam / average
        left = slope * (penalised if ratio >= 1.0 - KINK_TOLERANCE else 1.0)
        right = slope * (penalised if ratio > 1.0 + KINK_TOLERANCE else 1.0)
        price = mu * cost
        if d > lower:
            residual = max(residual, (price - left) / price)
        if d < upper:
            residual = max(residual, (right - price) / price)
    return residual


class TestOptimizerInvariants:
    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_allocation_feasible_and_integer(self, problem):
        result = optimize_allocation(problem)
        assert np.all(result.allocation >= 0)
        assert result.allocation.dtype.kind == "i"
        assert float(np.dot(problem.costs, result.allocation)) <= problem.budget + 1e-6

    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_budget_nearly_exhausted(self, problem):
        result = optimize_allocation(problem)
        spent = float(np.dot(problem.costs, result.allocation))
        assert spent >= problem.budget - float(problem.costs.max()) - 1e-6

    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_objective_not_worse_than_doing_nothing(self, problem):
        result = optimize_allocation(problem)
        baseline = problem.objective(np.zeros(problem.n_slices))
        achieved = problem.objective(result.allocation.astype(float))
        assert achieved <= baseline + 1e-9

    @given(problem=problems())
    @settings(max_examples=15, deadline=None)
    def test_greedy_allocation_feasible(self, problem):
        allocation = solve_greedy(problem, n_chunks=50)
        assert np.all(allocation >= -1e-9)
        assert float(np.dot(problem.costs, allocation)) <= problem.budget + 1e-6

    @given(problem=problems(), scale=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=15, deadline=None)
    def test_rounding_any_continuous_point_is_feasible(self, problem, scale):
        continuous = np.full(problem.n_slices, scale * problem.budget / problem.n_slices)
        rounded = round_allocation(problem, continuous)
        assert np.all(rounded >= 0)
        assert float(np.dot(problem.costs, rounded)) <= problem.budget + 1e-6


class TestExactSolver:
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_optimal_against_greedy_kkt_and_duality_gap(self, problem):
        solution = solve_kkt(problem)
        allocation = solution.allocation
        assert np.all(allocation >= 0.0)
        assert problem.total_cost(allocation) <= problem.budget * (1.0 + 1e-12)

        exact = problem.objective(allocation)
        greedy = problem.objective(solve_greedy(problem, n_chunks=4000))
        assert exact <= greedy * (1.0 + TOLERANCE)

        assert kkt_residual(problem, allocation, solution.multiplier) <= TOLERANCE
        assert 0.0 <= solution.duality_gap <= TOLERANCE

    @given(problem=problems())
    @settings(max_examples=25, deadline=None)
    def test_regimes_match_the_allocation(self, problem):
        solution = solve_kkt(problem)
        average = problem.average_current_loss()
        losses = problem.predicted_losses(solution.allocation)
        for d, regime, cost, loss in zip(
            solution.allocation, solution.regimes, problem.costs, losses
        ):
            if regime == "zero":
                assert d == 0.0
            elif regime == "cap":
                assert d == problem.budget / cost
            elif regime == "kink" or abs(loss / average - 1.0) <= KINK_TOLERANCE:
                assert abs(loss / average - 1.0) <= KINK_TOLERANCE
            else:
                assert regime == ("above" if loss > average else "below")
