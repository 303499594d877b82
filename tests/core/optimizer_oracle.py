"""A fine-grained greedy allocator: the independent oracle the exact solver
is checked against.

For a separable objective with convex terms, handing out the budget in
equal chunks, each to the slice whose objective falls most per unit cost,
approaches the optimum as the chunks shrink; it is never better than the
exact optimum.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SelectiveAcquisitionProblem


def slice_terms(problem: SelectiveAcquisitionProblem, additional: np.ndarray) -> np.ndarray:
    """Each slice's share of ``problem.objective(additional)``."""
    losses = problem.predicted_losses(additional)
    average = problem.average_current_loss()
    return losses + problem.lam * np.maximum(0.0, losses / average - 1.0)


def solve_greedy(problem: SelectiveAcquisitionProblem, n_chunks: int = 4000) -> np.ndarray:
    """Spend the budget in ``n_chunks`` equal chunks, each on the slice whose
    objective term falls most for it."""
    allocation = np.zeros(problem.n_slices)
    if problem.budget <= 0:
        return allocation
    extra = problem.budget / n_chunks / problem.costs
    for _ in range(n_chunks):
        gains = slice_terms(problem, allocation) - slice_terms(problem, allocation + extra)
        best = int(np.argmax(gains))
        allocation[best] += extra[best]
    return allocation
