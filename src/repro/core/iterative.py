"""The Iterative algorithm — Algorithm 1 of the paper (Section 5.2).

The Iterative algorithm repeatedly:

1. re-estimates the learning curves on the current data,
2. runs One-shot with the *entire remaining budget*,
3. caps the resulting acquisition so the imbalance ratio changes by at most
   ``T`` (scaling the allocation by the ``GetChangeRatio`` factor),
4. acquires the capped allocation, charges the budget, and
5. grows ``T`` according to the chosen strategy.

:class:`ScheduledIterativeStrategy` is that loop's proposal side; the
driving :class:`~repro.core.session.TunerSession` acquires each batch and
enforces the minimum slice size ``L`` up front.  The iterative
updates keep the learning curves reliable and account for cross-slice
influence, which is why the paper's Conservative/Moderate/Aggressive variants
beat One-shot.
"""

from __future__ import annotations

import numpy as np

from repro.core.imbalance import get_change_ratio, imbalance_ratio
from repro.core.oneshot import OneShotAlgorithm
from repro.core.plan import AcquisitionPlan, IterationRecord
from repro.core.registry import register_strategy
from repro.core.strategies import LimitStrategy, make_strategy
from repro.core.strategy_api import AcquisitionStrategy, TunerState
from repro.utils.exceptions import OptimizationError


def cap_change_by_limit(
    sizes: np.ndarray,
    order: tuple[str, ...],
    requested: dict[str, int],
    current_ratio: float,
    limit: float,
) -> tuple[dict[str, int], float]:
    """Cap ``requested`` so the imbalance ratio changes by at most ``limit``.

    Returns the (possibly scaled-down) integer allocation and the imbalance
    ratio it would produce.  This is the ``GetChangeRatio`` step of
    Algorithm 1, applied by :class:`ScheduledIterativeStrategy`.
    """
    sizes = sizes.astype(np.float64)
    num = np.array([requested[name] for name in order], dtype=np.float64)
    after_ratio = imbalance_ratio(sizes + num)
    if abs(after_ratio - current_ratio) <= limit:
        return dict(requested), float(after_ratio)
    target = current_ratio + limit * np.sign(after_ratio - current_ratio)
    try:
        change_ratio = get_change_ratio(sizes, num, target)
    except OptimizationError:
        change_ratio = 1.0
    num = np.floor(change_ratio * num)
    capped = {name: int(count) for name, count in zip(order, num)}
    return capped, float(imbalance_ratio(sizes + num))


class ScheduledIterativeStrategy(AcquisitionStrategy):
    """Algorithm 1 as a pluggable strategy.

    Each proposal re-runs One-shot with the remaining budget and caps the
    allocation so the imbalance ratio changes by at most the current limit
    ``T``; :meth:`observe` then grows ``T`` according to the wrapped
    Conservative / Moderate / Aggressive schedule.

    Parameters
    ----------
    schedule:
        The :class:`~repro.core.strategies.LimitStrategy` growing ``T``.
    """

    is_iterative = True
    uses_lam = True
    enforce_min_slice_size = True

    def __init__(self, schedule: LimitStrategy) -> None:
        self.schedule = schedule
        self.name = schedule.name
        self._limit = schedule.initial()
        self._current_ratio: float | None = None

    # -- lifecycle ---------------------------------------------------------------
    def begin(self, state: TunerState) -> None:
        self._limit = self.schedule.initial()
        self._current_ratio = None

    def propose(
        self, state: TunerState, budget: float, lam: float
    ) -> AcquisitionPlan | None:
        if self._current_ratio is None:
            # First proposal: measure the post-top-up imbalance ratio.
            self._current_ratio = imbalance_ratio(state.sliced.sizes())

        algorithm = OneShotAlgorithm(state.estimator, lam=lam)
        plan, curves = algorithm.plan(
            state.sliced, budget, cost_model=state.cost_model
        )
        if plan.is_empty():
            return None

        # Cap the change of the imbalance ratio at the current limit T.
        order = state.sliced.names
        requested, after_ratio = cap_change_by_limit(
            state.sliced.sizes(),
            order,
            dict(plan.counts),
            self._current_ratio,
            self._limit,
        )

        costs = np.array([state.cost_model.cost(name) for name in order])
        return AcquisitionPlan(
            counts=requested,
            expected_cost=float(
                np.dot(costs, [requested[name] for name in order])
            ),
            solver=plan.solver,
            limit=self._limit,
            curve_parameters={
                name: (curve.b, curve.a) for name, curve in curves.items()
            },
            imbalance_before=self._current_ratio,
            imbalance_after=float(after_ratio),
        )

    def observe(self, state: TunerState, record: IterationRecord) -> bool:
        if sum(record.acquired.values()) == 0:
            # The capped plan bought nothing (e.g. rounding to zero);
            # growing T may unblock the next iteration, otherwise stop.
            next_limit = self.schedule.increase(self._limit)
            if next_limit <= self._limit:
                return False
            self._limit = next_limit
            return True
        self._limit = self.schedule.increase(self._limit)
        self._current_ratio = imbalance_ratio(state.sliced.sizes())
        return True

    @property
    def current_limit(self) -> float:
        return self._limit

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "limit": self._limit,
            "current_ratio": self._current_ratio,
            "schedule": {
                "initial_limit": self.schedule.initial_limit,
                "step": getattr(self.schedule, "step", None),
                "factor": getattr(self.schedule, "factor", None),
            },
        }

    def load_state_dict(self, state) -> None:
        self._limit = float(state["limit"])
        ratio = state.get("current_ratio")
        self._current_ratio = None if ratio is None else float(ratio)
        schedule = state.get("schedule", {})
        self.schedule.initial_limit = float(
            schedule.get("initial_limit", self.schedule.initial_limit)
        )
        for knob in ("step", "factor"):
            if schedule.get(knob) is not None and hasattr(self.schedule, knob):
                setattr(self.schedule, knob, float(schedule[knob]))


@register_strategy(
    "conservative",
    description="iterative updates; T stays constant (most iterations)",
)
def _conservative_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("conservative", initial_limit))


@register_strategy(
    "moderate",
    description="iterative updates; T grows by a constant per iteration",
)
def _moderate_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("moderate", initial_limit))


@register_strategy(
    "aggressive",
    description="iterative updates; T doubles per iteration (fewest iterations)",
)
def _aggressive_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("aggressive", initial_limit))
