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

from repro._lazy import lazy_exports

_EXPORTS = {
    "SelectiveAcquisitionProblem": ".problem",
    "OptimizationResult": ".optimizer",
    "optimize_allocation": ".optimizer",
    "round_allocation": ".optimizer",
    "uniform_allocation": ".baselines",
    "water_filling_allocation": ".baselines",
    "proportional_allocation": ".baselines",
    "imbalance_ratio": ".imbalance",
    "get_change_ratio": ".imbalance",
    "LimitStrategy": ".strategies",
    "ConservativeStrategy": ".strategies",
    "ModerateStrategy": ".strategies",
    "AggressiveStrategy": ".strategies",
    "make_strategy": ".strategies",
    "OneShotAlgorithm": ".oneshot",
    "AcquisitionPlan": ".plan",
    "IterationRecord": ".plan",
    "TuningResult": ".plan",
    "AcquisitionStrategy": ".strategy_api",
    "TunerState": ".strategy_api",
    "OneShotStrategy": ".oneshot",
    "ScheduledIterativeStrategy": ".iterative",
    "AllocationBaselineStrategy": ".baselines",
    "register_strategy": ".registry",
    "get_strategy": ".registry",
    "available_strategies": ".registry",
    "strategy_descriptions": ".registry",
    "is_registered": ".registry",
    "TunerSession": ".session",
    "FulfillmentEvent": ".session",
    "IterationEvent": ".session",
    "SessionEvent": ".session",
    "SliceTuner": ".tuner",
    "SliceTunerConfig": ".tuner",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
