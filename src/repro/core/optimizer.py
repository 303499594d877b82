"""The selective data acquisition optimization (Section 5.1 of the paper).

Given per-slice power-law learning curves, the optimizer finds how many
examples to acquire per slice to minimize

    sum_i  b_i (|s_i| + d_i)^{-a_i}
  + lambda * sum_i  max(0, b_i (|s_i| + d_i)^{-a_i} / A - 1)

subject to ``sum_i C(s_i) * d_i = B`` and ``d_i >= 0``, where ``A`` is the
average predicted loss at the current sizes.  With ``A`` fixed the problem
is separable: each term ``f_i`` is convex and decreasing, and one budget
constraint links them.

``solve_kkt`` solves it exactly by bisection on the budget multiplier ``mu``.
For a fixed ``mu`` each slice's minimiser of ``f_i(d) + mu * C(s_i) * d`` has
a closed form (above the kink ``L_i = A``, at it, or below it), clipped to
``[0, B / C(s_i)]``; total spend is continuous and non-increasing in ``mu``,
so bisection always lands on the budget.  A slice smaller than one example
is the exception: the ``max(|s_i| + d_i, 1)`` clamp makes its term flat and
then decreasing, which is not convex, so the solver tries it both without
data and with at least enough to reach size 1, and keeps the better plan.

``optimize_allocation`` runs the solver and rounds the continuous solution to
integer example counts that respect the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from repro.core.problem import SelectiveAcquisitionProblem

#: Bisection steps; the loop stops earlier, once the bracket is two adjacent
#: floats (about 60 steps).
_MAX_BISECTIONS = 200


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
        Which solver produced the continuous solution (``"kkt"``, or
        ``"none"`` for a zero budget).
    duality_gap:
        Objective minus the Lagrangian dual value at the budget multiplier
        ``mu``; an upper bound on the continuous objective's distance from
        the optimum.
    regimes:
        Per slice, where its continuous allocation sits: ``"zero"`` (no
        data), ``"above"`` (predicted loss still above ``A``), ``"kink"``
        (exactly at ``A``), ``"below"`` (below ``A``) or ``"cap"`` (the
        whole budget).
    """

    allocation: np.ndarray
    continuous_allocation: np.ndarray
    objective_value: float
    spent: float
    solver: str
    duality_gap: float
    regimes: tuple[str, ...]

    def as_dict(self, slice_names: tuple[str, ...]) -> dict[str, int]:
        """Return the integer allocation keyed by slice name."""
        return {
            name: int(count) for name, count in zip(slice_names, self.allocation)
        }


class KKTSolution(NamedTuple):
    """A continuous allocation with its optimality certificate."""

    allocation: np.ndarray
    multiplier: float
    duality_gap: float
    regimes: tuple[str, ...]


# ---------------------------------------------------------------------------
# the exact continuous solver
# ---------------------------------------------------------------------------

def bisect(crossed, low: float, high: float) -> float:
    """The point in ``[low, high]`` where ``crossed`` turns true, to float
    resolution; ``crossed`` must be monotone and true at ``high``."""
    for _ in range(_MAX_BISECTIONS):
        middle = 0.5 * (low + high)
        if middle in (low, high):
            break
        low, high = (low, middle) if crossed(middle) else (middle, high)
    return high


def _solve_convex(
    problem: SelectiveAcquisitionProblem,
    average_loss: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> KKTSolution:
    """Minimise the objective with ``d_i`` in ``[lower_i, upper_i]`` and at most
    the budget spent, where every term is convex on its interval."""
    sizes, costs, a, b = problem.sizes, problem.costs, problem.a, problem.b
    budget = problem.budget
    active = upper > 0
    if not active.any():
        n = problem.n_slices
        return KKTSolution(np.zeros(n), 0.0, 0.0, ("zero",) * n)
    penalised = 1.0 + problem.lam / average_loss
    with np.errstate(over="ignore"):
        # A flat curve (tiny a) whose loss is above A never reaches it: its
        # kink size overflows to inf, which the minimiser handles as such.
        kink = np.power(b / average_loss, 1.0 / a)
    power = 1.0 / (a + 1.0)

    def minimiser(log_mu: float) -> tuple[np.ndarray, np.ndarray]:
        base = a * b / (np.exp(log_mu) * costs)
        below = np.power(base, power)
        above = np.power(base * penalised, power)
        size = np.minimum(above, np.maximum(below, kink))
        return size, np.clip(size - sizes, lower, upper)

    # Above the steepest slope at the lower bounds every slice stays there;
    # below the flattest slope at ``upper = B / C(s_i)`` that slice takes the
    # whole budget.  A factor e either side guards the bracket against rounding.
    slope_low = a * b * np.power(np.maximum(sizes + upper, 1.0), -a - 1.0) / costs
    slope_high = penalised * a * b * np.power(np.maximum(sizes + lower, 1.0), -a - 1.0) / costs
    log_mu = bisect(
        lambda log_mu: float(np.dot(costs, minimiser(log_mu)[1])) <= budget,
        float(np.log(slope_low[active].min())) - 1.0,
        float(np.log(slope_high[active].max())) + 1.0,
    )
    size, allocation = minimiser(log_mu)
    mu = float(np.exp(log_mu))
    regimes = np.select(
        [allocation <= 0.0, allocation >= upper, size < kink, size > kink],
        ["zero", "cap", "above", "below"],
        "kink",
    )
    # ``allocation`` minimises the Lagrangian at ``mu`` exactly, so the gap
    # between its objective and the dual value is the unspent budget's price.
    gap = mu * (budget - float(np.dot(costs, allocation)))
    return KKTSolution(allocation, mu, gap, tuple(str(r) for r in regimes))


def solve_kkt(problem: SelectiveAcquisitionProblem) -> KKTSolution:
    """Solve the continuous relaxation exactly; see the module docstring.

    A slice with fewer than one example either gets no data or at least
    enough to reach size 1; every combination of those choices is a convex
    problem, and the best of them is returned.  That is ``2**k`` solves for
    ``k`` empty slices; tuning runs rarely have any, so one solve is usual.
    """
    n = problem.n_slices
    if problem.budget <= 0:
        return KKTSolution(np.zeros(n), 0.0, 0.0, ("zero",) * n)
    average_loss = problem.average_current_loss()
    entry = np.maximum(1.0 - problem.sizes, 0.0)
    full = problem.budget / problem.costs
    small = np.flatnonzero(entry > 0)
    best, best_value = None, np.inf
    for funded in product((False, True), repeat=small.size):
        lower, upper = np.zeros(n), full.copy()
        lower[small] = np.where(funded, entry[small], 0.0)
        upper[small] = np.where(funded, full[small], 0.0)
        if np.dot(problem.costs, lower) > problem.budget:
            continue
        solution = _solve_convex(problem, average_loss, lower, upper)
        value = problem.objective(solution.allocation)
        if value < best_value:
            best, best_value = solution, value
    return best


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

    remaining = problem.budget - spent
    # Assign leftover budget example-by-example by best marginal gain/cost.
    while True:
        affordable = np.nonzero(costs <= remaining + 1e-9)[0]
        if affordable.size == 0:
            break
        current_value = problem.objective(allocation.astype(np.float64))
        gains = np.empty(affordable.size)
        for j, i in enumerate(affordable):
            trial = allocation.astype(np.float64)
            trial[i] += 1.0
            gains[j] = (current_value - problem.objective(trial)) / costs[i]
        best = affordable[int(np.argmax(gains))]
        allocation[best] += 1
        remaining -= costs[best]
    return allocation


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def optimize_allocation(problem: SelectiveAcquisitionProblem) -> OptimizationResult:
    """Solve the selective data acquisition problem.

    Solves the continuous relaxation exactly with :func:`solve_kkt` and
    rounds the result to an integer allocation that respects the budget.
    """
    solution = solve_kkt(problem)
    continuous = solution.allocation
    allocation = round_allocation(problem, continuous)
    return OptimizationResult(
        allocation=allocation,
        continuous_allocation=continuous,
        objective_value=problem.objective(continuous),
        spent=float(np.dot(problem.costs, allocation)),
        solver="kkt" if problem.budget > 0 else "none",
        duality_gap=solution.duality_gap,
        regimes=solution.regimes,
    )
