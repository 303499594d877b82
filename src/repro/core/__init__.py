"""Slice Tuner core: selective data acquisition (Sections 3 and 5 of the paper).

The pieces, bottom-up:

* :mod:`~repro.core.problem` — the selective data acquisition problem
  (Definition 2): slices, sizes, costs, fitted learning curves, budget, and
  the loss/unfairness trade-off weight ``lambda``.
* :mod:`~repro.core.optimizer` — the convex optimization that decides how
  many examples to acquire per slice (Section 5.1), plus integer rounding.
* :mod:`~repro.core.baselines` — Uniform, Water filling, and Proportional
  allocation baselines (Section 2.2).
* :mod:`~repro.core.imbalance` — imbalance ratio and the ``GetChangeRatio``
  solver used by Algorithm 1.
* :mod:`~repro.core.strategies` — Conservative / Moderate / Aggressive
  schedules for the imbalance-ratio change limit ``T``.
* :mod:`~repro.core.oneshot` / :mod:`~repro.core.iterative` — the One-shot
  algorithm and Algorithm 1 (iterative updates) as acquisition strategies.
* :mod:`~repro.core.strategy_api` / :mod:`~repro.core.registry` — the
  pluggable :class:`AcquisitionStrategy` protocol and the string-keyed
  registry every method resolves through.
* :mod:`~repro.core.session` — :class:`TunerSession`, the one driver of
  every strategy: the streaming propose-acquire-refit loop with hooks,
  early stops, and checkpoints.
* :mod:`~repro.core.tuner` — :class:`SliceTuner`, the end-to-end orchestrator
  of Figure 4: estimate curves, optimize, acquire, repeat, evaluate.
"""

from repro.core.baselines import (
    AllocationBaselineStrategy,
    proportional_allocation,
    uniform_allocation,
    water_filling_allocation,
)
from repro.core.imbalance import get_change_ratio, imbalance_ratio
from repro.core.iterative import ScheduledIterativeStrategy
from repro.core.oneshot import OneShotAlgorithm, OneShotStrategy
from repro.core.optimizer import (
    OptimizationResult,
    optimize_allocation,
    round_allocation,
)
from repro.core.plan import AcquisitionPlan, IterationRecord, TuningResult
from repro.core.problem import SelectiveAcquisitionProblem
from repro.core.registry import (
    available_strategies,
    get_strategy,
    is_registered,
    register_strategy,
    strategy_descriptions,
)
from repro.core.session import (
    FulfillmentEvent,
    IterationEvent,
    SessionEvent,
    TunerSession,
)
from repro.core.strategies import (
    AggressiveStrategy,
    ConservativeStrategy,
    LimitStrategy,
    ModerateStrategy,
    make_strategy,
)
from repro.core.strategy_api import AcquisitionStrategy, TunerState
from repro.core.tuner import SliceTuner, SliceTunerConfig

__all__ = [
    "SelectiveAcquisitionProblem",
    "OptimizationResult",
    "optimize_allocation",
    "round_allocation",
    "uniform_allocation",
    "water_filling_allocation",
    "proportional_allocation",
    "imbalance_ratio",
    "get_change_ratio",
    "LimitStrategy",
    "ConservativeStrategy",
    "ModerateStrategy",
    "AggressiveStrategy",
    "make_strategy",
    "OneShotAlgorithm",
    "AcquisitionPlan",
    "IterationRecord",
    "TuningResult",
    "AcquisitionStrategy",
    "TunerState",
    "OneShotStrategy",
    "ScheduledIterativeStrategy",
    "AllocationBaselineStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "strategy_descriptions",
    "is_registered",
    "TunerSession",
    "FulfillmentEvent",
    "IterationEvent",
    "SessionEvent",
    "SliceTuner",
    "SliceTunerConfig",
]
