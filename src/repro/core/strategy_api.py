"""The pluggable acquisition-strategy API.

The paper frames Slice Tuner as a selective data acquisition *framework*:
One-shot, the Iterative variants, the baselines, and even the rotting-bandit
comparator are all instances of one propose-acquire-refit loop.  This module
captures that loop's contract:

* :class:`TunerState` — a read/observe view over everything the orchestrator
  owns (slices, source, estimator, cost model, budget ledger, RNG) that a
  strategy may inspect when proposing an acquisition batch.
* :class:`AcquisitionStrategy` — the protocol every acquisition policy
  implements: ``propose(state, budget, lam) -> AcquisitionPlan`` plus
  ``name``/``is_iterative`` metadata and optional lifecycle hooks
  (``begin``, ``observe``) and checkpointing (``state_dict`` /
  ``load_state_dict``).

Strategies are instantiated through :mod:`repro.core.registry`; the driving
loop lives in :class:`repro.core.session.TunerSession`.  Registering a new
policy makes it available to :meth:`repro.core.tuner.SliceTuner.run`, the
``TunerSession`` streaming API, the CLI, and the experiment runner — no
``elif`` chain to extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.acquisition.service import AcquisitionService
from repro.core.plan import AcquisitionPlan, IterationRecord
from repro.fairness.report import evaluate_fairness
from repro.ml.metrics import log_loss
from repro.ml.train import Trainer

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.acquisition.budget import BudgetLedger
    from repro.acquisition.cost import CostModel
    from repro.acquisition.source import DataSource
    from repro.core.tuner import SliceTunerConfig
    from repro.curves.estimator import LearningCurveEstimator, ModelFactory
    from repro.engine.executor import Executor
    from repro.fairness.report import FairnessReport
    from repro.ml.train import TrainingConfig
    from repro.slices.sliced_dataset import SlicedDataset


@dataclass
class TunerState:
    """Everything a strategy may inspect while a tuning run is in flight.

    The state is a *view*: mutating the dataset or charging the ledger is the
    session's job; strategies only read it (and may train throwaway models
    through the helpers below, e.g. to measure rewards).

    Attributes
    ----------
    sliced:
        The slices and their current data (grows as batches are acquired).
    source:
        Where new examples come from.
    estimator:
        The learning-curve estimator shared by curve-based strategies.
    cost_model:
        Per-slice acquisition costs (may escalate as data is acquired).
    ledger:
        The run's budget ledger; ``ledger.remaining`` is what is left.
    config:
        The orchestrator configuration (``lam`` default, ``min_slice_size``,
        ``max_iterations``, ...).
    model_factory / trainer_config:
        The model family and hyperparameters used for evaluations, available
        to strategies that measure their own rewards (e.g. the bandit).
    executor:
        The run's :class:`~repro.engine.executor.Executor`.  Strategies
        with several independent trainings to run should batch them into
        :class:`~repro.engine.job.TrainingJob` specs and submit them here
        rather than looping over ``Trainer.fit``.
        (The :meth:`train_model` helper below predates the engine and still
        trains inline on the shared RNG stream.)
    service:
        The run's :class:`~repro.acquisition.service.AcquisitionService`.
        Strategies may inspect its fulfillment history
        (``service.fulfillments``, ``service.shortfall_by_slice()``) or
        routed availability (``service.available(name)``); actually
        acquiring and charging stays the session's job.
    rng:
        The run's random generator.
    iteration:
        1-based index of the iteration currently being proposed (0 while the
        minimum-slice-size top-up runs).
    records:
        The :class:`~repro.core.plan.IterationRecord` history so far.
    """

    sliced: "SlicedDataset"
    source: "DataSource"
    estimator: "LearningCurveEstimator"
    cost_model: "CostModel"
    ledger: "BudgetLedger"
    config: "SliceTunerConfig"
    model_factory: "ModelFactory"
    trainer_config: "TrainingConfig"
    rng: np.random.Generator
    executor: "Executor | None" = None
    service: AcquisitionService | None = None
    iteration: int = 0
    records: list[IterationRecord] = field(default_factory=list)

    # -- convenience views -------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """The slice names, in canonical order."""
        return tuple(self.sliced.names)

    @property
    def remaining(self) -> float:
        """Budget still available."""
        return self.ledger.remaining

    def unit_costs(self) -> dict[str, float]:
        """Current per-slice unit costs."""
        return {name: self.cost_model.cost(name) for name in self.sliced.names}

    def cheapest_cost(self) -> float:
        """The cheapest current unit cost across slices."""
        return min(self.cost_model.cost(name) for name in self.sliced.names)

    # -- model helpers for reward-measuring strategies ---------------------------
    def train_model(self):
        """Train a fresh model on the current combined training data."""
        model = self.model_factory(self.sliced.n_classes)
        trainer = Trainer(config=self.trainer_config, random_state=self.rng)
        trainer.fit(model, self.sliced.combined_train())
        return model

    def slice_validation_losses(self) -> dict[str, float]:
        """Per-slice validation log loss of a freshly trained model."""
        model = self.train_model()
        return {
            name: log_loss(model, dataset)
            for name, dataset in self.sliced.validation_by_slice().items()
        }

    def fairness_report(self) -> "FairnessReport":
        """Full fairness/accuracy report of a freshly trained model."""
        return evaluate_fairness(self.train_model(), self.sliced)


class AcquisitionStrategy:
    """Base class / protocol for pluggable acquisition policies.

    A strategy answers one question — *given the current state, what should
    the next acquisition batch be?* — through :meth:`propose`.  The driving
    loop (:class:`~repro.core.session.TunerSession`) handles everything else:
    budget accounting, actually acquiring the data, record keeping, hooks,
    and stopping.

    Class attributes (override in subclasses)
    -----------------------------------------
    name:
        Registry key reported in :class:`~repro.core.plan.TuningResult`.
    is_iterative:
        When False the session acquires exactly one batch (One-shot and the
        allocation baselines); when True it keeps calling :meth:`propose`
        until the budget runs dry, :meth:`propose` returns ``None``, or
        :meth:`observe` returns False.
    uses_lam:
        Whether the policy consumes the loss/unfairness weight ``lam``
        (baselines do not; their results report ``lam = 0``).
    enforce_min_slice_size:
        Whether the session should run the paper's minimum-slice-size top-up
        (Algorithm 1 steps 3-6) before the main loop.
    iteration_cap:
        Optional per-strategy override of ``config.max_iterations``.
    """

    name: str = "base"
    is_iterative: bool = False
    uses_lam: bool = True
    enforce_min_slice_size: bool = False
    iteration_cap: int | None = None

    # -- lifecycle ---------------------------------------------------------------
    def begin(self, state: TunerState) -> None:
        """Reset per-run state; called once before the first proposal."""

    def propose(
        self, state: TunerState, budget: float, lam: float
    ) -> AcquisitionPlan | None:
        """Return the next batch to acquire, or ``None`` to stop.

        Parameters
        ----------
        state:
            The live tuner state.
        budget:
            The budget still available for this and all future batches.
        lam:
            The loss/unfairness trade-off weight for this run.
        """
        raise NotImplementedError

    def observe(self, state: TunerState, record: IterationRecord) -> bool:
        """Digest the outcome of an acquisition; return False to stop.

        Called after each batch is acquired with the resulting
        :class:`~repro.core.plan.IterationRecord`.  Iterative strategies use
        this to advance their schedules (grow ``T``, update reward windows).
        """
        return True

    @property
    def current_limit(self) -> float:
        """The imbalance-ratio change limit in force (0 when not applicable)."""
        return 0.0

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the strategy's mutable run state."""
        return {}

    def load_state_dict(self, state: Mapping) -> None:
        """Restore run state captured by :meth:`state_dict`."""


def annotate_plan(
    plan: AcquisitionPlan,
    *,
    limit: float | None = None,
    curve_parameters: Mapping[str, tuple[float, float]] | None = None,
    imbalance_before: float | None = None,
    imbalance_after: float | None = None,
) -> AcquisitionPlan:
    """Return a copy of ``plan`` carrying strategy-side annotations.

    The session copies these annotations onto the
    :class:`~repro.core.plan.IterationRecord` it emits, so strategies can
    report the limit ``T`` in force, the fitted curve parameters, and their
    predicted imbalance ratios without holding a reference to the record.
    """
    return AcquisitionPlan(
        counts=plan.counts,
        expected_cost=plan.expected_cost,
        solver=plan.solver,
        limit=plan.limit if limit is None else float(limit),
        curve_parameters=(
            plan.curve_parameters if curve_parameters is None
            else dict(curve_parameters)
        ),
        imbalance_before=(
            plan.imbalance_before if imbalance_before is None
            else float(imbalance_before)
        ),
        imbalance_after=(
            plan.imbalance_after if imbalance_after is None
            else float(imbalance_after)
        ),
    )
