"""Running and aggregating experiments.

``run_method`` executes one acquisition method on one freshly generated
instance of a dataset/scenario; ``compare_methods`` repeats that over several
independently seeded trials for every configured method and aggregates the
results into the mean/std statistics the paper reports (Tables 2, 6, 7, 9,
10 and Figure 10).

The (method, trial) grid is embarrassingly parallel — every cell builds its
own dataset, source, and tuner from ``config.seed + trial`` — so
``compare_methods`` and ``budget_sweep`` accept an
:class:`~repro.engine.executor.Executor` and fan the grid out across
workers.  Results are identical for every backend.

``campaign_suite`` is the durable counterpart: it runs several
heterogeneous campaigns (different datasets, scenarios, strategies, and
priorities) concurrently through a
:class:`~repro.campaigns.scheduler.CampaignScheduler` over one shared
engine executor, persisting every iteration to a
:class:`~repro.campaigns.store.CampaignStore` so the whole suite survives
a crash and resumes byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acquisition.crowdsourcing import CrowdsourcingSimulator
from repro.acquisition.providers import CompositeSource, ThrottledSource
from repro.acquisition.source import (
    DataSource,
    GeneratorDataSource,
    PoolDataSource,
)
from repro.core.registry import STRATEGIES
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.curves.estimator import ModelFactory, default_model_factory
from repro.datasets.registry import build_task
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.factories import MLPFactory
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import build_scenario
from repro.slices.sliced_dataset import SlicedDataset
from repro.utils.exceptions import ConfigurationError


@dataclass
class MethodOutcome:
    """Result of one method on one trial."""

    method: str
    trial: int
    loss: float
    avg_eer: float
    max_eer: float
    initial_loss: float
    initial_avg_eer: float
    initial_max_eer: float
    iterations: int
    spent: float
    acquired: dict[str, int] = field(default_factory=dict)


@dataclass
class MethodAggregate:
    """Mean/std statistics of one method over all trials."""

    method: str
    loss_mean: float
    loss_std: float
    avg_eer_mean: float
    avg_eer_std: float
    max_eer_mean: float
    max_eer_std: float
    iterations_mean: float
    spent_mean: float
    acquired_mean: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_outcomes(cls, outcomes: list[MethodOutcome]) -> "MethodAggregate":
        """Aggregate per-trial outcomes for one method."""
        if not outcomes:
            raise ConfigurationError("cannot aggregate zero outcomes")
        slice_names = outcomes[0].acquired.keys()
        return cls(
            method=outcomes[0].method,
            loss_mean=float(np.mean([o.loss for o in outcomes])),
            loss_std=float(np.std([o.loss for o in outcomes])),
            avg_eer_mean=float(np.mean([o.avg_eer for o in outcomes])),
            avg_eer_std=float(np.std([o.avg_eer for o in outcomes])),
            max_eer_mean=float(np.mean([o.max_eer for o in outcomes])),
            max_eer_std=float(np.std([o.max_eer for o in outcomes])),
            iterations_mean=float(np.mean([o.iterations for o in outcomes])),
            spent_mean=float(np.mean([o.spent for o in outcomes])),
            acquired_mean={
                name: float(np.mean([o.acquired.get(name, 0) for o in outcomes]))
                for name in slice_names
            },
        )


def _model_factory_for(config: ExperimentConfig) -> ModelFactory:
    """Pick the model family for an experiment (``extra["model"]``)."""
    model_kind = str(config.extra.get("model", "softmax")).lower()
    if model_kind == "softmax":
        return default_model_factory
    if model_kind == "mlp":
        hidden = tuple(config.extra.get("hidden_sizes", (32,)))
        # A picklable factory (not a lambda), so experiment grids using the
        # MLP can still fan out across process-pool workers.
        return MLPFactory(hidden_sizes=hidden, random_state=0)
    raise ConfigurationError(f"unknown model kind {model_kind!r}")


#: Source kinds :func:`build_sources` understands (CLI ``--source`` choices).
SOURCE_KINDS = ("generator", "pool", "mixed", "flaky", "crowdsourcing")


def build_sources(
    kind: str, task, seed: int, base_size: int = 200
) -> dict[str, DataSource]:
    """Build the named provider table for one experiment instance.

    Returns a mapping of provider name to source in priority order, ready
    for ``SliceTuner(sources=...)``:

    * ``"generator"`` — the paper's unlimited simulator (single provider).
    * ``"pool"`` — finite per-slice reserves (``4 * base_size`` each).
    * ``"mixed"`` — a small pool (``base_size // 2`` per slice) that drains
      mid-run, with the generator as failover.
    * ``"flaky"`` — the generator behind a
      :class:`~repro.acquisition.providers.ThrottledSource` capping every
      request at ``max(base_size // 3, 10)`` examples, so batches come back
      partially fulfilled.
    * ``"crowdsourcing"`` — the AMT-style simulator (mistakes, duplicates,
      task timing) over the generator.

    All randomness derives from ``seed``, so two calls with the same
    arguments build byte-identical tables.
    """
    kind = str(kind).lower()
    generator = GeneratorDataSource(task, random_state=seed)
    if kind == "generator":
        return {"generator": generator}
    if kind == "pool":
        return {"pool": _pool_source(task, seed, per_slice=base_size * 4)}
    if kind == "mixed":
        pool = _pool_source(task, seed, per_slice=max(base_size // 2, 10))
        return {"pool": pool, "generator": generator}
    if kind == "flaky":
        throttled = ThrottledSource(
            generator,
            per_request_cap=max(base_size // 3, 10),
            latency_per_example=0.1,
        )
        return {"throttled_generator": throttled}
    if kind == "crowdsourcing":
        task_seconds = {
            name: 1.0 + 0.25 * index
            for index, name in enumerate(task.slice_names)
        }
        simulator = CrowdsourcingSimulator(
            generator, task_seconds=task_seconds, random_state=seed + 1
        )
        return {"crowdsourcing": simulator}
    raise ConfigurationError(
        f"unknown source kind {kind!r}; available: {SOURCE_KINDS}"
    )


def _pool_source(task, seed: int, per_slice: int) -> PoolDataSource:
    """Finite per-slice reserve pools generated deterministically from ``seed``."""
    pools = {
        name: task.generate(name, per_slice, random_state=seed + 100 + index)
        for index, name in enumerate(task.slice_names)
    }
    return PoolDataSource(pools, random_state=seed + 99)


def _source_kind_for(config: ExperimentConfig) -> str:
    """The source kind in force: ``extra["source"]`` overrides the scenario's."""
    scenario = build_scenario(config.scenario)
    return str(config.extra.get("source", scenario.source_kind))


def discovery_for(config: ExperimentConfig) -> tuple[str | None, int]:
    """The (discover, reslice_every) pair in force for an experiment.

    ``extra["discover"]`` / ``extra["reslice_every"]`` override the
    scenario's defaults, mirroring how ``extra["source"]`` overrides
    ``scenario.source_kind``.
    """
    scenario = build_scenario(config.scenario)
    discover = config.extra.get("discover", scenario.discover)
    if discover is not None:
        discover = str(discover)
    default_every = scenario.reslice_every if discover == scenario.discover else 2
    reslice_every = int(config.extra.get("reslice_every", default_every))
    return discover, reslice_every


def prepare_named_instance(
    config: ExperimentConfig, seed: int
) -> tuple[SlicedDataset, dict[str, DataSource]]:
    """Generate one fresh (sliced dataset, named provider table) pair."""
    task = build_task(config.dataset, **config.extra.get("task_kwargs", {}))
    scenario = build_scenario(config.scenario)
    base_size = int(config.extra.get("base_size", 200))
    initial_sizes = scenario.initial_sizes(task, base_size)
    sliced = task.initial_sliced_dataset(
        initial_sizes,
        validation_size=config.validation_size,
        random_state=seed,
    )
    sources = build_sources(
        _source_kind_for(config), task, seed=seed + 10_000, base_size=base_size
    )
    return sliced, sources


def prepare_instance(
    config: ExperimentConfig, seed: int
) -> tuple[SlicedDataset, DataSource]:
    """Generate one fresh (sliced dataset, acquisition source) pair.

    Single-source facade over :func:`prepare_named_instance`: a one-provider
    table returns the provider itself (for the paper's scenarios this is the
    same :class:`~repro.acquisition.source.GeneratorDataSource` as always);
    a multi-provider table is wrapped in a
    :class:`~repro.acquisition.providers.CompositeSource` honouring the
    priority order.
    """
    sliced, sources = prepare_named_instance(config, seed)
    if len(sources) == 1:
        return sliced, next(iter(sources.values()))
    return sliced, CompositeSource(sources)


def run_method(
    config: ExperimentConfig, method: str, trial: int
) -> MethodOutcome:
    """Run one method for one trial and measure loss/unfairness before/after."""
    seed = config.seed + trial
    sliced, sources = prepare_named_instance(config, seed)
    discover, reslice_every = discovery_for(config)
    tuner = SliceTuner(
        sliced=sliced,
        model_factory=_model_factory_for(config),
        trainer_config=config.training_config(),
        curve_config=config.curve_config(),
        config=SliceTunerConfig(
            lam=config.lam,
            min_slice_size=config.min_slice_size,
            acquisition_rounds=int(config.extra.get("acquisition_rounds", 1)),
            discover=discover,
            reslice_every=reslice_every if discover is not None else 0,
        ),
        random_state=seed + 20_000,
        sources=sources,
    )
    if method == "original":
        report = tuner.evaluate()
        return MethodOutcome(
            method="original",
            trial=trial,
            loss=report.loss,
            avg_eer=report.avg_eer,
            max_eer=report.max_eer,
            initial_loss=report.loss,
            initial_avg_eer=report.avg_eer,
            initial_max_eer=report.max_eer,
            iterations=0,
            spent=0.0,
            acquired={name: 0 for name in sliced.names},
        )

    result = tuner.run(config.budget, method=method, lam=config.lam, evaluate=True)
    return MethodOutcome(
        method=method,
        trial=trial,
        loss=result.final_report.loss,
        avg_eer=result.final_report.avg_eer,
        max_eer=result.final_report.max_eer,
        initial_loss=result.initial_report.loss,
        initial_avg_eer=result.initial_report.avg_eer,
        initial_max_eer=result.initial_report.max_eer,
        iterations=result.n_iterations,
        spent=result.spent,
        acquired=dict(result.total_acquired),
    )


def _run_method_cell(task: tuple[ExperimentConfig, str, int]) -> MethodOutcome:
    """One (method, trial) grid cell; module-level so it can cross processes."""
    config, method, trial = task
    return run_method(config, method, trial)


def compare_methods(
    config: ExperimentConfig,
    include_original: bool = True,
    executor: Executor | None = None,
) -> dict[str, MethodAggregate]:
    """Run every configured method over all trials and aggregate.

    Returns a mapping from method name to its aggregate; the pseudo-method
    ``"original"`` (no acquisition) is included when requested, as in the
    paper's tables.  The full (method, trial) grid is fanned out through
    ``executor`` (serial by default); every cell is independently seeded, so
    the aggregates do not depend on the backend.
    """
    methods = list(config.methods)
    if include_original and "original" not in methods:
        methods = ["original", *methods]
    for method in methods:
        if method != "original":
            STRATEGIES.primary(method)  # raises for an unknown name
    executor = executor or SerialExecutor()
    grid = [
        (config, method, trial)
        for method in methods
        for trial in range(config.trials)
    ]
    cells = executor.map(_run_method_cell, grid)
    outcomes: dict[str, list[MethodOutcome]] = {m: [] for m in methods}
    for (_, method, _), outcome in zip(grid, cells):
        outcomes[method].append(outcome)
    return {
        method: MethodAggregate.from_outcomes(results)
        for method, results in outcomes.items()
    }


def default_campaign_specs(seed: int = 0) -> tuple:
    """The builtin ``campaign_suite`` workload: 3 heterogeneous campaigns.

    The three campaigns differ along every axis the scheduler multiplexes:
    dataset (4-slice adult vs 8-slice faces), scenario/source (unlimited
    generator vs a draining pool with generator failover), strategy
    (iterative curve-based vs one-shot baseline), priority lane, and
    whether before/after evaluation reports are attached.  Sized to finish
    in seconds so the suite doubles as the CI crash/resume smoke workload.
    """
    from repro.campaigns import CampaignSpec

    return (
        CampaignSpec(
            name="adult-moderate",
            dataset="adult_like",
            scenario="basic",
            method="moderate",
            budget=600.0,
            seed=seed,
            base_size=50,
            validation_size=50,
            epochs=8,
            curve_points=3,
            evaluate=True,
            priority=1,
        ),
        CampaignSpec(
            name="adult-mixed-conservative",
            dataset="adult_like",
            scenario="mixed_sources",
            method="conservative",
            budget=400.0,
            seed=seed + 1,
            base_size=50,
            validation_size=50,
            epochs=8,
            curve_points=3,
            priority=0,
        ),
        CampaignSpec(
            name="faces-uniform",
            dataset="faces_like",
            scenario="basic",
            method="uniform",
            budget=200.0,
            seed=seed + 2,
            base_size=30,
            validation_size=40,
            epochs=8,
            curve_points=3,
            priority=0,
        ),
    )


def campaign_suite(
    store=None,
    specs=None,
    executor: Executor | None = None,
    on_progress=None,
    seed: int = 0,
):
    """Run several heterogeneous campaigns concurrently over one engine.

    Every campaign persists its event log and snapshots into ``store`` (an
    in-memory store by default — pass a
    :class:`~repro.campaigns.store.SqliteStore` for durability), so a
    killed suite resumes where it left off: re-running ``campaign_suite``
    against the same store deduplicates completed campaigns by content
    fingerprint and continues unfinished ones from their latest snapshot.

    Returns ``{campaign name: TuningResult}`` (suite specs must therefore
    carry unique names; the scheduler itself keys by campaign id).  With a
    serial executor the results are byte-identical to running each campaign
    on its own.
    """
    from repro.campaigns import CampaignScheduler

    scheduler = CampaignScheduler(
        store=store, executor=executor, on_progress=on_progress
    )
    specs = list(specs) if specs is not None else list(default_campaign_specs(seed))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"campaign_suite specs need unique names, got {names}"
        )
    campaigns = [scheduler.add(spec) for spec in specs]
    by_id = scheduler.run()
    return {
        campaign.spec.name: by_id[campaign.campaign_id] for campaign in campaigns
    }


def budget_sweep(
    config: ExperimentConfig,
    budgets: list[float],
    executor: Executor | None = None,
) -> dict[str, list[tuple[float, float, float]]]:
    """Loss and Avg. EER of every method at several budgets (Figure 10).

    Returns ``{method: [(budget, loss_mean, avg_eer_mean), ...]}``.  Each
    budget's method/trial grid fans out through ``executor``.
    """
    series: dict[str, list[tuple[float, float, float]]] = {
        method: [] for method in config.methods
    }
    for budget in budgets:
        sweep_config = ExperimentConfig(
            dataset=config.dataset,
            scenario=config.scenario,
            budget=float(budget),
            methods=config.methods,
            lam=config.lam,
            trials=config.trials,
            validation_size=config.validation_size,
            min_slice_size=config.min_slice_size,
            curve_points=config.curve_points,
            curve_repeats=config.curve_repeats,
            epochs=config.epochs,
            seed=config.seed,
            extra=dict(config.extra),
        )
        aggregates = compare_methods(
            sweep_config, include_original=False, executor=executor
        )
        for method in config.methods:
            aggregate = aggregates[method]
            series[method].append(
                (float(budget), aggregate.loss_mean, aggregate.avg_eer_mean)
            )
    return series
