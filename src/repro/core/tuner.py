"""The :class:`SliceTuner` orchestrator (Figure 4 of the paper).

SliceTuner ties everything together: it owns the sliced dataset, the data
source, the learning-curve estimator, and the cost model, and exposes a small
API:

* :meth:`SliceTuner.estimate_curves` — fit the current learning curves.
* :meth:`SliceTuner.plan` — compute a One-shot acquisition plan without
  acquiring anything (the "concrete action items" the paper advertises).
* :meth:`SliceTuner.run` — execute a full acquisition strategy by registry
  name (One-shot, an Iterative variant, a baseline, the bandit, or any
  custom registration) and optionally evaluate before and after.
* :meth:`SliceTuner.session` — a :class:`~repro.core.session.TunerSession`
  for step-wise streaming runs with hooks, early stops, and checkpoints.
* :meth:`SliceTuner.evaluate` — train the model on the current data and
  report loss, per-slice losses, and unfairness.

``run`` is a thin facade over ``session().run(...)``; the propose-acquire-
refit loop itself lives in :mod:`repro.core.session` and the acquisition
policies in :mod:`repro.core.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.acquisition.cost import CostModel, TableCost
from repro.acquisition.providers import CompositeSource
from repro.acquisition.service import DEFAULT_PROVIDER
from repro.acquisition.source import DataSource
from repro.core.oneshot import OneShotAlgorithm
from repro.core.plan import AcquisitionPlan, TuningResult
from repro.core.registry import available_strategies
from repro.core.session import TunerSession
from repro.engine.cache import ResultCache
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.factories import describe_factory
from repro.engine.job import TrainingJob
from repro.curves.estimator import (
    CurveEstimationConfig,
    LearningCurveEstimator,
    ModelFactory,
    default_model_factory,
)
from repro.curves.power_law import FittedCurve
from repro.fairness.report import FairnessReport, evaluate_fairness
from repro.ml.train import TrainingConfig
from repro.slices.sliced_dataset import SlicedDataset
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator, spawn_seeds

#: Legacy method groups, kept for backward compatibility; the authoritative
#: list is :func:`repro.core.registry.available_strategies`.
SLICE_TUNER_METHODS = ("oneshot", "conservative", "moderate", "aggressive")
BASELINE_METHODS = ("uniform", "water_filling", "proportional")


@dataclass(frozen=True)
class SliceTunerConfig:
    """Behavioural knobs of the orchestrator.

    Attributes
    ----------
    lam:
        Default loss/unfairness trade-off weight (the paper's default is 1).
    min_slice_size:
        The paper's ``L``: minimum slice size enforced before iterating.
    max_iterations:
        Safety cap for the iterative algorithms.
    evaluation_trials:
        How many independently-seeded models are trained and averaged by
        :meth:`SliceTuner.evaluate`.
    acquisition_rounds:
        Deadline (in routing rounds) given to every acquisition request the
        session emits.  One round walks each routed provider once; more
        rounds let throttled or partially-delivering providers be retried
        within the same batch.  The default of 1 reproduces the classic
        single-shot ``acquire`` semantics.
    incremental_curves:
        When True, the estimator keeps a per-slice
        :class:`~repro.engine.cache.CurveCache`: refits skip entirely when
        no slice pool changed, and the exhaustive protocol re-measures only
        the slices whose pools did change (the amortized protocol's
        trainings each cover every slice, so any change refreshes all
        curves at unchanged cost).  Off by default: it trades curve
        freshness for fewer trainings under the exhaustive protocol, which
        also changes the Table 8 training counts.
    discover:
        Name of a registered slice discovery method (see
        :mod:`repro.slices.discovery`).  When set, the session re-runs
        discovery every ``reslice_every`` iterations as acquired data
        shifts the error surface, re-partitioning the sliced dataset and
        re-initializing the strategy (*dynamic slices* mode).
    reslice_every:
        Re-discovery cadence in iterations; required (>= 1) when
        ``discover`` is set, and only meaningful with it.
    """

    lam: float = 1.0
    min_slice_size: int = 0
    max_iterations: int = 30
    evaluation_trials: int = 1
    acquisition_rounds: int = 1
    incremental_curves: bool = False
    discover: str | None = None
    reslice_every: int = 0

    def __post_init__(self) -> None:
        if self.discover is not None:
            from repro.slices.discovery import DISCOVERY_METHODS

            DISCOVERY_METHODS.primary(self.discover)  # raises for an unknown name
            if self.reslice_every < 1:
                raise ConfigurationError(
                    "discover requires reslice_every >= 1, "
                    f"got {self.reslice_every}"
                )
        elif self.reslice_every != 0:
            raise ConfigurationError(
                "reslice_every requires a discover method to be set"
            )
        if self.lam < 0:
            raise ConfigurationError(f"lam must be >= 0, got {self.lam}")
        if self.min_slice_size < 0:
            raise ConfigurationError(
                f"min_slice_size must be >= 0, got {self.min_slice_size}"
            )
        if self.max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.evaluation_trials <= 0:
            raise ConfigurationError(
                f"evaluation_trials must be positive, got {self.evaluation_trials}"
            )
        if self.acquisition_rounds < 1:
            raise ConfigurationError(
                f"acquisition_rounds must be >= 1, got {self.acquisition_rounds}"
            )


class SliceTuner:
    """End-to-end selective data acquisition for one sliced dataset.

    Parameters
    ----------
    sliced:
        The slices and their current data.  The tuner mutates this object as
        data is acquired.
    source:
        Which provider leads the acquisition routing: the name of an entry
        in ``sources``, or (deprecation shim for the pre-service API) a bare
        :class:`~repro.acquisition.source.DataSource` instance, registered
        as the single provider ``"default"``.  When ``sources`` holds
        several providers the selected one is tried first and the rest serve
        as failover, in table order; omitted, the table order itself is the
        priority order.
    sources:
        Named provider table for the run — a mapping of provider name to
        :class:`~repro.acquisition.source.DataSource` (insertion order =
        priority order), e.g. ``{"pool": pool, "generator": simulator}``.
        Every session acquisition is routed across this table through an
        :class:`~repro.acquisition.router.AcquisitionRouter`, so a dry pool
        fails over to the next provider instead of ending the run.
    model_factory:
        Callable ``n_classes -> model``; defaults to softmax regression.
    trainer_config:
        Hyperparameters used for every model training.
    curve_config:
        Learning-curve estimation configuration.
    cost_model:
        Per-slice acquisition costs; defaults to the costs on the slices.
    config:
        Orchestrator configuration.
    random_state:
        Seed or generator controlling sampling, training, and evaluation.
    executor:
        Execution backend for every model training the tuner performs
        (curve estimation and evaluation trials).  Defaults to a
        :class:`~repro.engine.executor.SerialExecutor`; pass a
        :class:`~repro.engine.executor.ProcessPoolExecutor` to parallelize.
        Per-job seeds are spawned up-front, so the backend never changes the
        numbers — parallelism is purely a deployment choice.
    result_cache:
        Optional content-addressed :class:`~repro.engine.cache.ResultCache`
        attached to the executor, so a training repeated on identical data
        with an identical seed is served from cache instead of re-run.
        When you pass your own ``executor``, the cache is attached to it —
        and therefore shared by everything using that executor (safe,
        because entries are keyed by content, but visible in its stats).
        Passing a *different* ``result_cache`` for an executor that already
        has one is a configuration error rather than a silent override.
    """

    def __init__(
        self,
        sliced: SlicedDataset,
        source: DataSource | str | None = None,
        model_factory: ModelFactory | None = None,
        trainer_config: TrainingConfig | None = None,
        curve_config: CurveEstimationConfig | None = None,
        cost_model: CostModel | None = None,
        config: SliceTunerConfig | None = None,
        random_state: RandomState = None,
        executor: Executor | None = None,
        result_cache: ResultCache | None = None,
        sources: Mapping[str, DataSource] | None = None,
    ) -> None:
        self.sliced = sliced
        self.sources, self.provider_order, self.source = _resolve_sources(
            source, sources
        )
        self.model_factory = model_factory or default_model_factory
        self.trainer_config = trainer_config or TrainingConfig()
        self.curve_config = curve_config or CurveEstimationConfig()
        self.cost_model = cost_model or TableCost(
            {name: sliced[name].cost for name in sliced.names}
        )
        self.config = config or SliceTunerConfig()
        if executor is None:
            executor = SerialExecutor(cache=result_cache)
        elif result_cache is not None:
            if executor.cache is None:
                executor.cache = result_cache
            elif executor.cache is not result_cache:
                raise ConfigurationError(
                    "the supplied executor already has a result cache "
                    "attached; pass result_cache only together with a "
                    "cache-less executor (or let the tuner build one)"
                )
        self.executor = executor
        self._rng = as_generator(random_state)
        # A fixed evaluation seed drawn once, so repeated evaluate() calls on
        # the same data agree regardless of how much of the main stream the
        # acquisition loop has consumed in between.
        self._eval_seed = int(self._rng.integers(0, 2**63 - 1))
        # A disk-backed result cache doubles as the curve store (duck-typed
        # on its curve tier), so incremental curves survive restarts too.
        curve_store = (
            self.executor.cache
            if self.config.incremental_curves
            and hasattr(self.executor.cache, "store_curve")
            else None
        )
        self.estimator = LearningCurveEstimator(
            model_factory=self.model_factory,
            trainer_config=self.trainer_config,
            config=self.curve_config,
            random_state=self._rng,
            executor=self.executor,
            incremental=self.config.incremental_curves,
            curve_store=curve_store,
        )

    # -- curves and plans ---------------------------------------------------------
    def estimate_curves(self) -> dict[str, FittedCurve]:
        """Fit the current learning curves of all slices."""
        return self.estimator.estimate(self.sliced)

    def plan(
        self,
        budget: float,
        lam: float | None = None,
        curves: Mapping[str, FittedCurve] | None = None,
    ) -> AcquisitionPlan:
        """Compute a One-shot acquisition plan without acquiring anything."""
        oneshot = OneShotAlgorithm(
            self.estimator, lam=self.config.lam if lam is None else lam
        )
        plan, _ = oneshot.plan(
            self.sliced, budget, curves=curves, cost_model=self.cost_model
        )
        return plan

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, n_trials: int | None = None) -> FairnessReport:
        """Train the model on the current data and measure loss/unfairness.

        ``n_trials`` independently-seeded models are trained and their
        reports averaged, mirroring the paper's mean-over-trials protocol.
        Trial seeds are spawned from a dedicated evaluation stream, so two
        ``evaluate()`` calls on the same data return identical reports no
        matter how much randomness the acquisition loop consumed in between.

        The trials are submitted to the tuner's executor as one job batch —
        they parallelize across workers, and with a result cache attached a
        re-evaluation on unchanged data trains nothing at all.
        """
        n_trials = n_trials or self.config.evaluation_trials
        train = self.sliced.combined_train()
        factory_name = describe_factory(self.model_factory)
        jobs = [
            TrainingJob(
                train=train,
                n_classes=self.sliced.n_classes,
                seed=seed,
                trainer_config=self.trainer_config,
                model_factory=self.model_factory,
                factory_name=factory_name,
                tag=("evaluate", trial),
            )
            for trial, seed in enumerate(spawn_seeds(self._eval_seed, n_trials))
        ]
        results = self.executor.submit(jobs)
        reports = [
            evaluate_fairness(result.model, self.sliced) for result in results
        ]
        return _average_reports(reports)

    # -- runtime state (campaign snapshots) ----------------------------------------
    def runtime_state(self) -> dict:
        """The tuner's mutable runtime state, as one picklable bundle.

        Everything a faithful mid-run restore needs *besides* the session
        checkpoint (:meth:`TunerSession.state_dict
        <repro.core.session.TunerSession.state_dict>`): the sliced dataset,
        the named provider table (each provider carries its own RNG and
        remaining reserves), the cost model, the main RNG stream position,
        and the fixed evaluation seed.  The returned dict *aliases* the live
        objects — serialize it immediately (e.g. ``pickle.dumps``) to get a
        point-in-time copy; the campaign subsystem does exactly that.
        """
        return {
            "sliced": self.sliced,
            "sources": self.sources,
            "provider_order": self.provider_order,
            "cost_model": self.cost_model,
            "rng_state": self._rng.bit_generator.state,
            "eval_seed": self._eval_seed,
        }

    def restore_runtime_state(self, state: Mapping) -> None:
        """Restore a bundle captured by :meth:`runtime_state`.

        Must be called on a tuner *constructed identically* to the one the
        bundle was captured from (same constructor arguments and seed):
        construction-time derivations — the estimator's content-derived root
        seed, configs, the model factory — are not part of the bundle, only
        the state that mutates as a run progresses.  The main RNG is
        restored *in place* so components sharing the generator object (the
        curve estimator) see the restored stream position.  After the
        restore, a continued run is byte-identical to one that was never
        interrupted.
        """
        self.sliced = state["sliced"]
        self.sources = dict(state["sources"])
        self.provider_order = tuple(state["provider_order"])
        if len(self.provider_order) == 1:
            self.source = self.sources[self.provider_order[0]]
        else:
            self.source = CompositeSource(
                [(name, self.sources[name]) for name in self.provider_order]
            )
        self.cost_model = state["cost_model"]
        self._rng.bit_generator.state = state["rng_state"]
        self._eval_seed = int(state["eval_seed"])

    # -- the main entry points ----------------------------------------------------------
    def session(self, **hooks) -> TunerSession:
        """Create a streaming :class:`~repro.core.session.TunerSession`.

        Keyword arguments (``on_iteration``, ``on_acquire``, ``on_evaluate``)
        are forwarded to the session constructor.
        """
        return TunerSession(self, **hooks)

    def run(
        self,
        budget: float,
        method: str = "moderate",
        lam: float | None = None,
        evaluate: bool = True,
    ) -> TuningResult:
        """Acquire data with the chosen strategy and (optionally) evaluate.

        This is a thin facade over :meth:`session`: it drains
        ``session().run(...)`` and returns the complete
        :class:`~repro.core.plan.TuningResult`.

        Parameters
        ----------
        budget:
            Total data acquisition budget ``B``.
        method:
            Any registered strategy name — the paper's ``"oneshot"``,
            ``"conservative"``, ``"moderate"``, ``"aggressive"``, the
            baselines ``"uniform"``, ``"water_filling"``,
            ``"proportional"``, the ``"bandit"`` comparator, or a custom
            registration (see :func:`repro.core.registry.register_strategy`).
        lam:
            Loss/unfairness weight; defaults to the configured value.
        evaluate:
            When True, the model is trained and evaluated before and after
            acquisition and the reports attached to the result.
        """
        return self.session().run(
            budget=budget, strategy=method, lam=lam, evaluate=evaluate
        )

    @staticmethod
    def available_methods() -> tuple[str, ...]:
        """Every strategy name :meth:`run` currently accepts."""
        return available_strategies()


def _resolve_sources(
    source: DataSource | str | None,
    sources: Mapping[str, DataSource] | None,
) -> tuple[dict[str, DataSource], tuple[str, ...], DataSource]:
    """Resolve the ``(source=, sources=)`` constructor surface.

    Returns ``(provider table, priority order, primary source view)``.  The
    primary view is the single :class:`DataSource` legacy readers (e.g.
    ``TunerState.source``) see: the provider itself for a one-entry table,
    or a :class:`~repro.acquisition.providers.CompositeSource` over the
    priority order when several providers are configured.
    """
    if sources:
        table = dict(sources)
        for name, provider in table.items():
            if not isinstance(provider, DataSource):
                raise ConfigurationError(
                    f"sources[{name!r}] does not implement DataSource "
                    f"(got {type(provider).__name__})"
                )
        if source is None:
            order = tuple(table)
        elif isinstance(source, str):
            if source not in table:
                raise ConfigurationError(
                    f"source {source!r} is not in the sources table; "
                    f"available: {sorted(table)}"
                )
            order = (source, *(name for name in table if name != source))
        else:
            raise ConfigurationError(
                "when sources= is given, select the lead provider by name "
                "(source=\"name\"), not by instance"
            )
        if len(order) == 1:
            return table, order, table[order[0]]
        view = CompositeSource([(name, table[name]) for name in order])
        return table, order, view
    if source is None:
        raise ConfigurationError(
            "SliceTuner needs a data source: pass sources={name: DataSource, ...} "
            "(optionally selecting a lead with source=\"name\") or a bare "
            "DataSource instance"
        )
    if isinstance(source, str):
        raise ConfigurationError(
            f"source {source!r} names a provider but no sources= table was given"
        )
    # Deprecation shim: the pre-service API passed a bare DataSource; it
    # becomes the single provider "default" in the routing table.
    return {DEFAULT_PROVIDER: source}, (DEFAULT_PROVIDER,), source


def _average_reports(reports: list[FairnessReport]) -> FairnessReport:
    """Average several fairness reports field-by-field."""
    if len(reports) == 1:
        return reports[0]
    slice_names = reports[0].slice_losses.keys()
    slice_losses = {
        name: float(np.mean([r.slice_losses[name] for r in reports]))
        for name in slice_names
    }
    return FairnessReport(
        loss=float(np.mean([r.loss for r in reports])),
        slice_losses=slice_losses,
        avg_eer=float(np.mean([r.avg_eer for r in reports])),
        max_eer=float(np.mean([r.max_eer for r in reports])),
        slice_sizes=dict(reports[0].slice_sizes),
    )
