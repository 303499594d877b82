"""The selective data acquisition optimization (Section 5.1 of the paper).

Given per-slice power-law learning curves, the optimizer finds how many
examples to acquire per slice to minimize

    sum_i  b_i (|s_i| + d_i)^{-a_i}
  + lambda * sum_i  max(0, b_i (|s_i| + d_i)^{-a_i} / A - 1)

subject to ``sum_i C(s_i) * d_i = B`` and ``d_i >= 0``, where ``A`` is the
average predicted loss at the current sizes.  The problem is convex (a sum of
power-law terms, a hinge of a convex function, and a linear constraint).

Two solvers are provided:

* ``solve_slsqp`` — SciPy's SLSQP on the continuous relaxation (the "any
  off-the-shelf convex optimization solver" of the paper).
* ``solve_greedy`` — a marginal-gain-per-cost greedy allocator that is used
  as a fallback when SLSQP fails and as an ablation baseline; for separable
  convex objectives greedy chunk allocation approaches the optimum as the
  chunk size shrinks.

``optimize_allocation`` runs SLSQP, falls back to greedy if needed, and
finally rounds the continuous solution to integer example counts that respect
the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SelectiveAcquisitionProblem
from repro.utils.exceptions import OptimizationError


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the allocation optimization.

    Attributes
    ----------
    allocation:
        Integer number of examples to acquire per slice (ordered like the
        problem's ``slice_names``).
    continuous_allocation:
        The continuous solution before integer rounding.
    objective_value:
        Objective at the continuous solution.
    spent:
        Cost of the integer allocation.
    solver:
        Which solver produced the continuous solution (``"slsqp"`` or
        ``"greedy"``).
    """

    allocation: np.ndarray
    continuous_allocation: np.ndarray
    objective_value: float
    spent: float
    solver: str

    def as_dict(self, slice_names: tuple[str, ...]) -> dict[str, int]:
        """Return the integer allocation keyed by slice name."""
        return {
            name: int(count) for name, count in zip(slice_names, self.allocation)
        }


# ---------------------------------------------------------------------------
# continuous solvers
# ---------------------------------------------------------------------------

def _objective_and_gradient(
    problem: SelectiveAcquisitionProblem, average_loss: float
) -> tuple[callable, callable]:
    """Build objective and (sub)gradient callables for the continuous problem."""
    sizes, b, a, lam = problem.sizes, problem.b, problem.a, problem.lam

    def objective(d: np.ndarray) -> float:
        effective = np.maximum(sizes + d, 1.0)
        losses = b * np.power(effective, -a)
        penalty = np.maximum(0.0, losses / average_loss - 1.0)
        return float(losses.sum() + lam * penalty.sum())

    def gradient(d: np.ndarray) -> np.ndarray:
        effective = np.maximum(sizes + d, 1.0)
        losses = b * np.power(effective, -a)
        dloss = -a * b * np.power(effective, -a - 1.0)
        active = (losses / average_loss - 1.0) > 0.0
        return dloss * (1.0 + lam * active.astype(np.float64) / average_loss)

    return objective, gradient


def solve_slsqp(problem: SelectiveAcquisitionProblem) -> np.ndarray:
    """Solve the continuous relaxation with SciPy's SLSQP.

    Returns the continuous per-slice allocation; raises
    :class:`~repro.utils.exceptions.OptimizationError` when the solver does
    not converge to a feasible point.
    """
    n = problem.n_slices
    budget = problem.budget
    if budget <= 0:
        return np.zeros(n)
    average_loss = problem.average_current_loss()
    objective, gradient = _objective_and_gradient(problem, average_loss)

    costs = problem.costs
    # Start from the budget spread uniformly over slices (cost-weighted).
    start = np.full(n, budget / costs.sum())

    constraints = [
        {
            "type": "eq",
            "fun": lambda d: np.dot(costs, d) - budget,
            "jac": lambda d: costs,
        }
    ]
    bounds = [(0.0, budget / c) for c in costs]
    from scipy import optimize  # on first use: start-up stays scipy-free

    result = optimize.minimize(
        objective,
        start,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-9},
    )
    if not result.success:
        raise OptimizationError(f"SLSQP failed: {result.message}")
    allocation = np.clip(result.x, 0.0, None)
    spent = float(np.dot(costs, allocation))
    if spent > 0:
        allocation *= budget / spent  # repair small constraint violations
    return allocation


def solve_greedy(
    problem: SelectiveAcquisitionProblem, n_chunks: int = 200
) -> np.ndarray:
    """Greedy chunk allocation by marginal objective improvement per cost.

    The budget is split into ``n_chunks`` equal chunks; each chunk goes to the
    slice whose predicted objective decrease per unit cost is largest given
    the allocation so far.  Used as a fallback solver and as an ablation
    baseline ("greedy" in the benchmarks).
    """
    n = problem.n_slices
    budget = problem.budget
    if budget <= 0:
        return np.zeros(n)
    average_loss = problem.average_current_loss()
    objective, _ = _objective_and_gradient(problem, average_loss)

    chunk = budget / n_chunks
    allocation = np.zeros(n)
    remaining = budget
    while remaining > 1e-9:
        spend = min(chunk, remaining)
        best_gain, best_index = -np.inf, -1
        current_value = objective(allocation)
        for i in range(n):
            extra = spend / problem.costs[i]
            trial = allocation.copy()
            trial[i] += extra
            gain = (current_value - objective(trial)) / spend
            if gain > best_gain:
                best_gain, best_index = gain, i
        allocation[best_index] += spend / problem.costs[best_index]
        remaining -= spend
    return allocation


# ---------------------------------------------------------------------------
# integer rounding
# ---------------------------------------------------------------------------

def round_allocation(
    problem: SelectiveAcquisitionProblem, continuous: np.ndarray
) -> np.ndarray:
    """Round a continuous allocation to integers without exceeding the budget.

    The allocation is floored, then the leftover budget is assigned one
    example at a time to the slice with the largest predicted objective
    improvement per cost, until no further example is affordable.
    """
    continuous = np.clip(np.asarray(continuous, dtype=np.float64), 0.0, None)
    allocation = np.floor(continuous).astype(np.int64)
    costs = problem.costs
    spent = float(np.dot(costs, allocation))
    if spent > problem.budget + 1e-9:
        # Defensive: remove examples from the cheapest-gain slices until
        # feasible.  This can only happen if the continuous solution itself
        # overspends slightly.
        order = np.argsort(problem.a * problem.b)  # least useful first
        for i in order:
            while allocation[i] > 0 and spent > problem.budget + 1e-9:
                allocation[i] -= 1
                spent -= costs[i]

    average_loss = problem.average_current_loss()
    objective, _ = _objective_and_gradient(problem, average_loss)
    remaining = problem.budget - spent
    # Assign leftover budget example-by-example by best marginal gain/cost.
    while True:
        affordable = np.nonzero(costs <= remaining + 1e-9)[0]
        if affordable.size == 0:
            break
        current_value = objective(allocation.astype(np.float64))
        gains = np.empty(affordable.size)
        for j, i in enumerate(affordable):
            trial = allocation.astype(np.float64)
            trial[i] += 1.0
            gains[j] = (current_value - objective(trial)) / costs[i]
        best = affordable[int(np.argmax(gains))]
        allocation[best] += 1
        remaining -= costs[best]
    return allocation


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def optimize_allocation(problem: SelectiveAcquisitionProblem) -> OptimizationResult:
    """Solve the selective data acquisition problem.

    Runs SLSQP on the continuous relaxation, falls back to the greedy solver
    if SLSQP fails, and rounds the result to an integer allocation that
    respects the budget.
    """
    if problem.budget <= 0:
        zeros = np.zeros(problem.n_slices)
        return OptimizationResult(
            allocation=zeros.astype(np.int64),
            continuous_allocation=zeros,
            objective_value=problem.objective(zeros),
            spent=0.0,
            solver="none",
        )
    solver = "slsqp"
    try:
        continuous = solve_slsqp(problem)
    except OptimizationError:
        continuous = solve_greedy(problem)
        solver = "greedy"
    allocation = round_allocation(problem, continuous)
    return OptimizationResult(
        allocation=allocation,
        continuous_allocation=continuous,
        objective_value=problem.objective(continuous),
        spent=float(np.dot(problem.costs, allocation)),
        solver=solver,
    )
