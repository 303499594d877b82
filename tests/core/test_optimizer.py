"""Tests for repro.core.optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimizer import optimize_allocation, round_allocation, solve_kkt
from repro.core.problem import SelectiveAcquisitionProblem
from tests.core.optimizer_oracle import solve_greedy


def solve(problem: SelectiveAcquisitionProblem) -> np.ndarray:
    """The exact continuous allocation."""
    return solve_kkt(problem).allocation


def make_problem(
    sizes=(100.0, 100.0),
    costs=(1.0, 1.0),
    b=(2.0, 2.0),
    a=(0.4, 0.4),
    budget=400.0,
    lam=1.0,
) -> SelectiveAcquisitionProblem:
    names = tuple(f"s{i}" for i in range(len(sizes)))
    return SelectiveAcquisitionProblem(
        slice_names=names,
        sizes=np.array(sizes, dtype=float),
        costs=np.array(costs, dtype=float),
        b=np.array(b, dtype=float),
        a=np.array(a, dtype=float),
        budget=float(budget),
        lam=float(lam),
    )


class TestContinuousSolvers:
    def test_kkt_spends_whole_budget(self):
        problem = make_problem()
        allocation = solve(problem)
        assert np.dot(problem.costs, allocation) == pytest.approx(problem.budget, rel=1e-12)
        assert np.all(allocation >= 0)

    def test_symmetric_problem_gets_symmetric_allocation(self):
        problem = make_problem()
        allocation = solve(problem)
        assert allocation[0] == pytest.approx(allocation[1], rel=1e-9)

    def test_steeper_curve_gets_more_data(self):
        # Both slices currently have the same loss (b chosen so that
        # b * 100^-a = 1), but slice 0's curve is much steeper, so acquiring
        # for it reduces loss faster and it should receive more budget.
        problem = make_problem(
            b=(100.0**0.8, 100.0**0.1), a=(0.8, 0.1), lam=0.0
        )
        allocation = solve(problem)
        assert allocation[0] > allocation[1]

    def test_smaller_slice_with_identical_curves_gets_more_data(self):
        problem = make_problem(sizes=(50.0, 500.0), lam=0.0)
        allocation = solve(problem)
        assert allocation[0] > allocation[1]

    def test_greedy_oracle_spends_whole_budget(self):
        problem = make_problem(b=(3.0, 1.0), a=(0.5, 0.3))
        greedy = solve_greedy(problem, n_chunks=400)
        assert np.dot(problem.costs, greedy) == pytest.approx(problem.budget, rel=1e-6)

    def test_kkt_not_worse_than_greedy(self):
        problem = make_problem(b=(3.0, 1.0), a=(0.5, 0.3), lam=0.5)
        exact = problem.objective(solve(problem))
        greedy = problem.objective(solve_greedy(problem, n_chunks=400))
        assert exact <= greedy

    def test_zero_budget_returns_zeros(self):
        problem = make_problem(budget=0.0)
        assert np.all(solve(problem) == 0)
        assert np.all(solve_greedy(problem) == 0)


class TestLambdaBehaviour:
    def test_high_lambda_prioritizes_high_loss_slice(self):
        # Slice 0 currently has a much higher loss; with a large lambda the
        # optimizer should push most of the budget there even though the
        # curves have identical shapes at their current points.
        problem_fair = make_problem(b=(6.0, 1.0), a=(0.3, 0.3), lam=10.0)
        problem_loss = make_problem(b=(6.0, 1.0), a=(0.3, 0.3), lam=0.0)
        fair_alloc = solve(problem_fair)
        loss_alloc = solve(problem_loss)
        fair_share = fair_alloc[0] / fair_alloc.sum()
        loss_share = loss_alloc[0] / loss_alloc.sum()
        assert fair_share >= loss_share - 1e-6
        assert fair_alloc[0] > fair_alloc[1]


class TestCertificate:
    def test_tiny_budget_caps_the_steepest_slice(self):
        problem = make_problem(
            sizes=(10.0, 500.0), b=(10.0, 0.2), a=(1.2, 0.05), budget=10.0
        )
        solution = solve_kkt(problem)
        assert solution.regimes == ("cap", "zero")
        assert solution.allocation[0] == pytest.approx(10.0, rel=1e-12)

    def test_kink_slice_lands_on_the_average_loss(self):
        problem = make_problem(
            sizes=(97.0, 294.0), b=(2.0, 10.0), a=(0.17, 0.57), budget=800.0,
            lam=10.0,
        )
        solution = solve_kkt(problem)
        assert solution.regimes == ("kink", "below")
        loss = problem.predicted_losses(solution.allocation)[0]
        assert loss == pytest.approx(problem.average_current_loss(), rel=1e-12)
        assert 0.0 <= solution.duality_gap <= 1e-9

    def test_empty_slice_is_funded_past_size_one(self):
        problem = make_problem(sizes=(0.0, 100.0))
        allocation = solve(problem)
        assert allocation[0] >= 1.0
        assert problem.objective(allocation) <= problem.objective(
            solve_greedy(problem)
        )

    def test_empty_slice_the_budget_cannot_lift_gets_nothing(self):
        problem = make_problem(sizes=(0.0, 100.0), budget=0.5)
        solution = solve_kkt(problem)
        assert solution.regimes == ("zero", "cap")
        assert solution.allocation[1] == pytest.approx(0.5, rel=1e-12)


class TestRounding:
    def test_rounded_allocation_is_integer_and_affordable(self):
        problem = make_problem(costs=(1.3, 0.7), budget=333.0)
        continuous = solve(problem)
        rounded = round_allocation(problem, continuous)
        assert rounded.dtype.kind == "i"
        assert np.dot(problem.costs, rounded) <= problem.budget + 1e-6

    def test_rounding_spends_nearly_all_budget(self):
        problem = make_problem(costs=(1.0, 1.0), budget=500.0)
        rounded = round_allocation(problem, solve(problem))
        spent = float(np.dot(problem.costs, rounded))
        assert spent >= problem.budget - max(problem.costs)

    def test_overspending_continuous_input_is_repaired(self):
        problem = make_problem(budget=10.0)
        rounded = round_allocation(problem, np.array([100.0, 100.0]))
        assert np.dot(problem.costs, rounded) <= problem.budget + 1e-6


class TestOptimizeAllocation:
    def test_returns_consistent_result(self):
        problem = make_problem(b=(3.0, 1.5), a=(0.5, 0.2), costs=(1.0, 1.5))
        result = optimize_allocation(problem)
        assert result.allocation.shape == (2,)
        assert result.spent <= problem.budget + 1e-6
        assert result.solver == "kkt"
        assert len(result.regimes) == 2
        assert 0.0 <= result.duality_gap <= 1e-9
        assert result.as_dict(problem.slice_names)["s0"] == int(result.allocation[0])

    def test_zero_budget(self):
        result = optimize_allocation(make_problem(budget=0.0))
        assert result.allocation.sum() == 0
        assert result.spent == 0.0

    def test_allocation_improves_objective_over_no_acquisition(self):
        problem = make_problem(b=(3.0, 1.5), a=(0.5, 0.2))
        result = optimize_allocation(problem)
        assert problem.objective(result.allocation.astype(float)) < problem.objective(
            np.zeros(2)
        )

    def test_many_slices_scale(self):
        n = 12
        rng = np.random.default_rng(0)
        problem = make_problem(
            sizes=tuple(rng.integers(50, 300, n).astype(float)),
            costs=tuple(rng.uniform(0.8, 1.6, n)),
            b=tuple(rng.uniform(1.0, 4.0, n)),
            a=tuple(rng.uniform(0.1, 0.8, n)),
            budget=2000.0,
        )
        result = optimize_allocation(problem)
        assert result.allocation.shape == (n,)
        assert np.all(result.allocation >= 0)
        assert result.spent <= problem.budget + 1e-6
