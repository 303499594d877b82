"""Command-line interface for the Slice Tuner reproduction.

Fourteen subcommands cover the common workflows without writing any Python:

* ``curves`` — estimate and print the per-slice learning curves of a dataset.
* ``plan`` — print the One-shot acquisition plan for a budget (no data is
  acquired), the "concrete action items" of the paper.
* ``discover`` — run a registered slice-discovery method once over a fresh
  instance (train a probe model, fit the method, print the discovered
  partition and its content fingerprint); ``discover --list`` enumerates
  the registered methods.
* ``run`` — execute one acquisition strategy end to end against a chosen
  acquisition setup (``--source generator|pool|mixed|flaky|crowdsourcing``)
  and print the per-fulfillment delivery log plus the engine cache
  statistics; ``--discover <method> --reslice-every N`` re-runs slice
  discovery every N iterations mid-run; ``run --resume <campaign-id>``
  instead continues a stored campaign from its latest snapshot.
* ``compare`` — run several acquisition strategies over independently seeded
  trials and print the Table-2/6-style comparison.  ``--methods`` accepts
  any name in the strategy registry, including the ``bandit`` comparator
  and user registrations.
* ``campaign`` — durable, resumable runs persisted to a SQLite store:
  ``campaign start`` (one spec from flags, or ``--suite`` for the builtin
  concurrent multi-campaign workload), ``campaign resume <id>`` (or
  ``--all``) continuing after a pause or crash, ``campaign list``, and
  ``campaign show <id>`` replaying a campaign's event log.
* ``serve`` — the tuner service daemon: a ``ThreadingHTTPServer`` JSON API
  over one shared campaign scheduler + SQLite store, streaming live events
  over SSE; SIGTERM/SIGINT drain gracefully (checkpoint + pause every
  running campaign so a restarted daemon resumes byte-identically).
* ``remote`` — thin clients for a running daemon: ``submit``, ``list``,
  ``show``, ``tail`` (live event stream), ``result``, ``wait``, ``pause``,
  ``resume``, ``stats``.
* ``cache`` — inspect and maintain the persistent shared result/curve cache
  (``stats``, ``clear``, ``gc --max-mb``).  ``run``, ``campaign``, and
  ``serve`` all accept ``--cache-dir`` (or the ``REPRO_CACHE_DIR``
  environment variable) to share one content-addressed SQLite cache across
  processes and restarts: a training repeated anywhere with identical data,
  configuration, and seed is served from disk instead of re-run.
* ``telemetry`` — inspect a recorded trace directory: ``spans`` (the raw
  span log), ``metrics`` (the merged counter/gauge/histogram snapshot),
  and ``summary`` (per-span-name timing rollup).  ``run``, ``campaign``,
  and ``serve`` all accept ``--trace-out DIR`` (or the ``REPRO_TRACE_DIR``
  environment variable) to switch tracing on: spans stream to
  ``DIR/spans.jsonl`` and the final metrics snapshot lands in
  ``DIR/metrics.json`` on exit.  Tracing never changes results — traced
  and untraced runs are byte-identical.
* ``report`` — analytics reports over a campaign store's event log
  (``summary``, ``slices``, ``fulfillment``, ``fairness``, ``cache``,
  ``telemetry``):
  SQL views with window functions, materialized into a separate
  ``<store>.analytics`` database refreshed incrementally by event-sequence
  cursor.  ``--verify`` cross-checks every SQL view row-for-row against a pure
  Python reference; ``--json`` emits the same ``repro.report/1`` payload
  the daemon serves at ``/reports/summary`` and ``/campaigns/<id>/report``.
* ``monitor`` — health and alerting: ``rules`` (the registered SLO
  rules), ``alerts`` (the durable alert history of a store), ``status``
  (per-component health folded from a store), ``watch`` (a live dashboard
  over a daemon) and ``bench`` (the benchmark-regression watchdog).
* ``strategies`` — list every registered acquisition strategy.
* ``sources`` — list every registered data-source provider.

Every subcommand accepts ``--quiet`` (print only essential results) and the
process exits with code 0 on success, 2 on configuration/usage errors (the
same code argparse uses), and a raised traceback only for genuine bugs.
``run``, ``campaign``, ``report``, ``cache``, ``telemetry``, ``monitor``,
``strategies``, ``sources``, and the ``remote`` commands also accept ``--json`` for machine-readable
output: one JSON object on stdout carrying a ``schema`` tag (e.g.
``repro.run/1``) that stays stable across releases — the README documents
the full tag inventory.  The read-only store commands (``campaign list``,
``campaign show``, ``report``, ``monitor alerts``, ``monitor status``) exit
2 on a ``--store`` path that does not exist and create nothing there.

Leaf inventory (one :data:`LEAVES` entry each)::

    curves, plan, discover, run, compare, serve, report, strategies, sources
    campaign: start, resume, list, show
    cache: stats, clear, gc
    telemetry: spans, metrics, summary
    remote: submit, list, show, tail, result, wait, pause, resume, stats
    monitor: rules, alerts, status, watch, bench

Adding a subcommand takes one :data:`LEAVES` entry (its path, handler, help
and flags, reusing the shared flag groups) plus a handler.  A handler with
a JSON form returns a :class:`Reply`: its payload, its ``repro.*/1``
schema tag, and a function rendering the text or ``--quiet`` form from the
same data; ``main`` prints it, so no handler prints JSON itself.  A handler
without a JSON form returns its text.  Streaming commands (``remote tail``,
``monitor watch``, ``serve``, the campaign progress lines) print as they go.

Start-up pays only for what a command uses: this module imports the stdlib
plus the dependency-free ``repro.telemetry`` and ``repro.utils`` leaves, and
each ``run_*`` handler imports the subsystem it drives.  Registry-backed
options validate through argparse ``type=`` functions, which argparse calls
only for the subcommand being parsed, so ``remote list`` or ``report`` never
load numpy.

Examples::

    python -m repro.cli strategies
    python -m repro.cli discover --method kmeans --dataset adult_like
    python -m repro.cli run --dataset adult_like --scenario exponential \
        --method conservative --discover kmeans --reslice-every 2
    python -m repro.cli curves --dataset fashion_like --initial-size 150
    python -m repro.cli run --dataset fashion_like --scenario mixed_sources \
        --source mixed --method moderate --budget 800
    python -m repro.cli campaign start --suite --store campaigns.sqlite
    python -m repro.cli campaign list --store campaigns.sqlite --json
    python -m repro.cli campaign resume --all --store campaigns.sqlite
    python -m repro.cli serve --store campaigns.sqlite --port 8731
    python -m repro.cli remote submit --name nightly --budget 500 \
        --url http://127.0.0.1:8731 --wait
    python -m repro.cli remote tail nightly-0123456789 --url http://127.0.0.1:8731
    python -m repro.cli compare --dataset mixed_like --budget 2000 \
        --methods uniform water_filling moderate bandit --trials 2
    python -m repro.cli run --dataset adult_like --budget 500 --trace-out traces/
    python -m repro.cli telemetry summary --trace-dir traces/ --json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from contextlib import closing
from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro import telemetry
from repro.utils.exceptions import ConfigurationError, ReproError
from repro.utils.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns import Campaign
    from repro.campaigns.store import SqliteStore
    from repro.core.tuner import SliceTuner
    from repro.engine.cache import ResultCache
    from repro.experiments.config import ExperimentConfig
    from repro.serve.client import TunerClient
    from repro.utils.registry import Registry

#: Default campaign store location for the ``campaign`` family of commands.
DEFAULT_STORE = "campaigns.sqlite"

#: Default bind/connect endpoint for ``serve`` and the ``remote`` commands.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8731
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


class Reply(NamedTuple):
    """What a leaf handler with a ``--json`` form returns.

    ``payload`` is the machine-readable body, printed with its ``schema``
    tag (``repro.<command>/<version>``) so downstream tooling can detect
    breaking changes; ``text`` renders the table or ``--quiet`` form from
    the same data and runs only when ``--json`` is off.
    """

    schema: str
    payload: dict
    text: Callable[[], str]


def _render(args: argparse.Namespace, reply: Reply | str) -> str:
    """The one output path: ``--json`` first, then the text or quiet form.

    A plain string is the output of a leaf without a JSON form.  JSON keys
    are sorted for diff-stable output.
    """
    if isinstance(reply, str):
        return reply
    if getattr(args, "json_output", False):
        return json.dumps({"schema": reply.schema, **reply.payload}, indent=2, sort_keys=True)
    return reply.text()


def _from_env(value: str | None, variable: str) -> str | None:
    """A directory flag's value, else the environment variable (unset or empty: ``None``)."""
    return value if value is not None else os.environ.get(variable) or None


def _build_result_cache(args: argparse.Namespace, required: bool = False) -> ResultCache:
    """The result cache a subcommand should use.

    The directory comes from ``--cache-dir``, then ``REPRO_CACHE_DIR``, so
    supervisors and CI can point every invocation at one shared cache.
    With one configured this is a process-shared, restart-surviving
    :class:`~repro.engine.diskcache.SqliteResultCache`; without one, the
    classic per-process :class:`InMemoryResultCache` — or, for the
    ``cache`` subcommands (``required``), a usage error.
    """
    cache_dir = _from_env(getattr(args, "cache_dir", None), "REPRO_CACHE_DIR")
    if cache_dir is None:
        if required:
            raise ConfigurationError(
                "the cache subcommand needs a persistent cache: pass --cache-dir "
                "or set REPRO_CACHE_DIR"
            )
        from repro.engine.cache import InMemoryResultCache

        return InMemoryResultCache()
    from repro.engine.diskcache import SqliteResultCache, default_cache_path

    os.makedirs(cache_dir, exist_ok=True)
    return SqliteResultCache(default_cache_path(cache_dir))


def _resolve_trace_dir(args: argparse.Namespace) -> str | None:
    """The trace output directory: ``--trace-out`` flag, then env var.

    Only subcommands that declare ``--trace-out`` (run, campaign, serve)
    resolve the ``REPRO_TRACE_DIR`` fallback — inspection commands must
    never install a live tracer over the directory they are reading.
    ``None`` (the default) keeps the zero-cost no-op tracer installed.
    """
    if not hasattr(args, "trace_out"):
        return None
    return _from_env(args.trace_out, "REPRO_TRACE_DIR")


def _require_trace_dir(args: argparse.Namespace) -> str:
    """The trace directory a ``telemetry`` inspection subcommand reads."""
    trace_dir = _from_env(args.trace_dir, "REPRO_TRACE_DIR")
    if trace_dir is None:
        raise ConfigurationError(
            "the telemetry subcommand needs a trace directory: pass "
            "--trace-dir or set REPRO_TRACE_DIR (record one with "
            "`run --trace-out DIR`)"
        )
    return trace_dir


def _existing_store(args: argparse.Namespace) -> SqliteStore:
    """The store a read-only command reads; exit 2, creating nothing, when missing."""
    from repro.campaigns.store import SqliteStore

    if not os.path.exists(args.store):
        raise ConfigurationError(
            f"no campaign store at {args.store!r}; start one with "
            f"`campaign start` (or pass --store)"
        )
    return SqliteStore(args.store)


def _require_id_or_all(args: argparse.Namespace) -> None:
    """``campaign resume`` / ``remote resume`` take a campaign id or ``--all``."""
    if args.resume_all and args.campaign_id:
        raise ConfigurationError("pass either a campaign id or --all, not both")
    if not args.resume_all and not args.campaign_id:
        raise ConfigurationError(f"{args.leaf} needs a campaign id (or --all)")


def _executor_kwargs(args: argparse.Namespace) -> dict:
    """``get_executor`` keyword arguments from ``--executor``/``--workers``."""
    if args.workers is not None and args.executor != "process":
        raise ConfigurationError("--workers only applies to --executor process")
    return {"max_workers": args.workers} if args.executor == "process" else {}


def _spec_fields(args: argparse.Namespace) -> dict:
    """The ``CampaignSpec`` fields the spec flags describe (start and submit)."""
    return {
        "name": args.name,
        "dataset": args.dataset,
        "scenario": args.scenario,
        "source": args.source,
        "method": args.method,
        "budget": args.budget,
        "lam": args.lam,
        "seed": args.seed,
        "base_size": args.initial_size,
        "validation_size": args.validation_size,
        "epochs": args.epochs,
        "curve_points": args.curve_points,
        "priority": args.priority,
        "checkpoint_every": args.checkpoint_every,
        "evaluate": args.evaluate,
        "discover": args.discover,
        "reslice_every": args.reslice_every if args.discover is not None else 0,
    }


def _registered(table: Callable[[], "Registry"]) -> Callable[[str], str]:
    """argparse type accepting any name ``table()`` knows, passed on as its
    primary name; an unknown name fails with the registry's own error.

    argparse calls a ``type`` only for the subcommand actually parsed, so
    building the parser loads no registry (and, for most commands, no numpy).
    """

    def check(value: str) -> str:
        try:
            return table().primary(value)
        except ConfigurationError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return check


def _source_kinds() -> "Registry":
    """``--source`` values: the runner's static source kinds as a registry."""
    from repro.experiments.runner import SOURCE_KINDS
    from repro.utils.registry import Registry

    kinds = Registry("source kind")
    for kind in SOURCE_KINDS:
        kinds.add(kind, kind)
    return kinds


_dataset = _registered(lambda: import_module("repro.datasets.registry").TASKS)
_scenario = _registered(lambda: import_module("repro.experiments.scenarios").SCENARIOS)
_source = _registered(_source_kinds)
_executor = _registered(lambda: import_module("repro.engine.executor").EXECUTORS)
_method = _registered(lambda: import_module("repro.core.registry").STRATEGIES)
_discovery = _registered(lambda: import_module("repro.slices.discovery").DISCOVERY_METHODS)


def _flag(*names: str, **options) -> tuple:
    """One ``add_argument`` call, declared as data for the :data:`LEAVES` table."""
    return names, options


# -- flag groups shared by several leaves, each declared once -----------------------

QUIET = (
    _flag("--quiet", action="store_true", help="print only essential results (ids, status, final summary)"),
)
JSON = (
    _flag(
        "--json",
        action="store_true",
        dest="json_output",
        help="print one machine-readable JSON object instead of tables "
        "(stable schema, see the module docs)",
    ),
)
COMMON = (
    _flag("--dataset", default="fashion_like", type=_dataset, help="synthetic dataset to use"),
    _flag("--scenario", default="basic", type=_scenario, help="initial-size scenario"),
    _flag("--initial-size", type=int, default=150, help="base initial size per slice"),
    _flag("--validation-size", type=int, default=150, help="validation examples per slice"),
    _flag("--epochs", type=int, default=30, help="training epochs per model fit"),
    _flag("--curve-points", type=int, default=5, help="subset sizes measured per learning curve"),
    _flag("--seed", type=int, default=0, help="base random seed"),
    *QUIET,
)
BUDGET = (
    _flag("--budget", type=float, default=1000.0, help="acquisition budget B"),
    _flag("--lam", type=float, default=1.0, help="loss/unfairness trade-off weight"),
)
METHOD = _flag(
    "--method",
    default="moderate",
    type=_method,
    metavar="STRATEGY",
    help="registered strategy name to run (see the strategies subcommand)",
)
SOURCE = _flag(
    "--source",
    default=None,
    type=_source,
    help="acquisition setup to route requests across (defaults to the "
    "scenario's own source kind)",
)
DISCOVERY = (
    _flag(
        "--discover",
        default=None,
        type=_discovery,
        metavar="METHOD",
        help="re-run this registered slice-discovery method mid-run and "
        "swap onto the discovered slices (see the discover subcommand)",
    ),
    _flag(
        "--reslice-every",
        type=int,
        default=2,
        help="iteration cadence for re-running discovery (only with --discover; default: 2)",
    ),
)
EXECUTOR = (
    _flag(
        "--executor",
        default="serial",
        type=_executor,
        help="execution backend for the trainings (results are identical "
        "for every backend)",
    ),
    _flag(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor process (default: CPU count)",
    ),
)
CACHE_DIR = (
    _flag(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="directory holding the persistent shared result/curve cache "
        "(sqlite, shared across processes and restarts); defaults to "
        "the REPRO_CACHE_DIR environment variable, else in-memory",
    ),
)
TRACE_OUT = (
    _flag(
        "--trace-out",
        default=None,
        dest="trace_out",
        metavar="DIR",
        help="record telemetry: stream spans to DIR/spans.jsonl and "
        "write the metrics snapshot to DIR/metrics.json on exit "
        "(defaults to the REPRO_TRACE_DIR environment variable, else "
        "tracing stays off; results are identical either way)",
    ),
)
STORE = (
    _flag("--store", default=DEFAULT_STORE, help=f"SQLite campaign store path (default: {DEFAULT_STORE})"),
    *CACHE_DIR,
    *QUIET,
)
#: The CampaignSpec fields of ``campaign start`` and ``remote submit``
#: (``--name`` differs: optional with ``--suite``, required for submit).
SPEC = (
    _flag("--dataset", default="adult_like", type=_dataset),
    _flag("--scenario", default="basic", type=_scenario),
    SOURCE,
    METHOD,
    *DISCOVERY,
    _flag("--budget", type=float, default=500.0),
    _flag("--lam", type=float, default=1.0),
    _flag("--seed", type=int, default=0),
    _flag("--initial-size", type=int, default=60, help="base initial size per slice"),
    _flag("--validation-size", type=int, default=60),
    _flag("--epochs", type=int, default=10),
    _flag("--curve-points", type=int, default=3),
    _flag("--priority", type=int, default=0, help="scheduler lane (higher runs first)"),
    _flag("--checkpoint-every", type=int, default=1, help="snapshot cadence in iterations"),
    _flag("--evaluate", action="store_true", help="attach before/after evaluation reports to the result"),
)
TRACE_DIR = (
    _flag(
        "--trace-dir",
        default=None,
        dest="trace_dir",
        metavar="DIR",
        help="trace directory to read (defaults to the REPRO_TRACE_DIR environment variable)",
    ),
    *QUIET,
    *JSON,
)
URL = (
    _flag("--url", default=DEFAULT_URL, help=f"daemon base URL (default: {DEFAULT_URL})"),
    _flag("--timeout", type=float, default=300.0, help="overall wait/request timeout in seconds"),
    *QUIET,
    *JSON,
)
CAMPAIGN_ID = (_flag("campaign_id", help="campaign id"),)
ID_OR_ALL = (
    _flag("campaign_id", nargs="?", default=None, help="campaign id (omit with --all)"),
    _flag(
        "--all",
        action="store_true",
        dest="resume_all",
        help="every unfinished campaign in the store",
    ),
)


def _experiment_config(
    args: argparse.Namespace,
    methods: tuple[str, ...],
    budget: float,
    lam: float,
    trials: int,
    extra: dict | None = None,
) -> ExperimentConfig:
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        dataset=args.dataset,
        scenario=args.scenario,
        budget=budget,
        methods=methods,
        lam=lam,
        trials=trials,
        validation_size=args.validation_size,
        curve_points=args.curve_points,
        curve_repeats=1,
        epochs=args.epochs,
        seed=args.seed,
        extra={"base_size": args.initial_size, **(extra or {})},
    )


def _build_tuner(args: argparse.Namespace, lam: float = 1.0) -> SliceTuner:
    from repro.core.tuner import SliceTuner, SliceTunerConfig
    from repro.experiments.runner import prepare_instance

    config = _experiment_config(args, methods=("moderate",), budget=1.0, lam=lam, trials=1)
    sliced, source = prepare_instance(config, seed=args.seed)
    return SliceTuner(
        sliced,
        source,
        trainer_config=config.training_config(),
        curve_config=config.curve_config(),
        config=SliceTunerConfig(lam=lam),
        random_state=args.seed + 1,
    )


def run_curves(args: argparse.Namespace) -> str:
    """The ``curves`` subcommand: fit and render per-slice learning curves."""
    tuner = _build_tuner(args)
    curves = tuner.estimate_curves()
    rows = [
        [name, f"{curve.b:.3f}", f"{curve.a:.3f}", f"{curve.reliability:.2f}", curve.describe()]
        for name, curve in curves.items()
    ]
    if args.quiet:
        return "\n".join(
            f"{name} b={curve.b:.3f} a={curve.a:.3f}" for name, curve in curves.items()
        )
    return format_table(
        headers=["slice", "b", "a", "reliability", "curve"],
        rows=rows,
        title=f"Learning curves for {args.dataset} ({args.scenario} scenario)",
    )


def run_plan(args: argparse.Namespace) -> str:
    """The ``plan`` subcommand: print the One-shot plan without acquiring."""
    tuner = _build_tuner(args, lam=args.lam)
    plan = tuner.plan(budget=args.budget, lam=args.lam)
    if args.quiet:
        return "\n".join(f"{name} {count}" for name, count in plan.counts.items())
    return plan.to_text()


def run_discover(args: argparse.Namespace) -> Reply | str:
    """The ``discover`` subcommand: fit one discovery method, print the partition.

    ``--list`` has no JSON form: it prints the registered methods.
    """
    from repro.slices.discovery import (
        available_discovery_methods,
        discovery_method_descriptions,
        get_discovery_method,
    )

    if args.list_methods:
        descriptions = discovery_method_descriptions()
        if args.quiet:
            return "\n".join(available_discovery_methods())
        return format_table(
            headers=["method", "description"],
            rows=[[name, descriptions[name]] for name in available_discovery_methods()],
            title="Registered slice-discovery methods",
        )

    from repro.curves.estimator import default_model_factory
    from repro.engine.cache import InMemoryResultCache
    from repro.engine.executor import SerialExecutor
    from repro.engine.factories import describe_factory
    from repro.engine.job import TrainingJob, stable_seed
    from repro.experiments.runner import prepare_named_instance

    config = _experiment_config(args, methods=("moderate",), budget=1.0, lam=1.0, trials=1)
    sliced, _ = prepare_named_instance(config, seed=args.seed)
    pool = sliced.combined_train()
    job = TrainingJob(
        train=pool,
        n_classes=sliced.n_classes,
        seed=stable_seed("slice-discovery-model", 1),
        trainer_config=config.training_config(),
        model_factory=default_model_factory,
        factory_name=describe_factory(default_model_factory),
        tag=("discover", 1),
    )
    model = SerialExecutor(cache=InMemoryResultCache()).submit([job])[0].model
    method = get_discovery_method(
        args.method, seed=stable_seed("slice-discovery", args.method, 1)
    )
    method.fit(model, pool)
    discovered = method.transform(sliced)
    fingerprint = method.fingerprint()
    slices = [
        {
            "name": name,
            "train": len(discovered[name].train),
            "validation": len(discovered[name].validation),
            "cost": discovered[name].cost,
        }
        for name in discovered.names
    ]

    def text() -> str:
        if args.quiet:
            lines = [f"{s['name']} {s['train']}" for s in slices]
            return "\n".join([*lines, f"fingerprint {fingerprint}"])
        table = format_table(
            headers=["slice", "train", "validation", "cost"],
            rows=[[s["name"], s["train"], s["validation"], f"{s['cost']:.2f}"] for s in slices],
            title=(
                f"Discovered partition — {args.method} on {args.dataset} "
                f"({args.scenario} scenario, {len(slices)} slices)"
            ),
        )
        return table + f"\n\nfingerprint: {fingerprint}"

    config_fields = {
        "dataset": args.dataset,
        "scenario": args.scenario,
        "method": args.method,
        "seed": args.seed,
    }
    return Reply(
        "repro.discover/1",
        {"config": config_fields, "fingerprint": fingerprint, "slices": slices},
        text,
    )


def run_run(args: argparse.Namespace) -> Reply:
    """The ``run`` subcommand: one strategy end to end + the fulfillment log."""
    if args.resume is not None:
        return _resume_campaigns(args, [args.resume])
    from repro.core.tuner import SliceTuner, SliceTunerConfig
    from repro.engine.executor import get_executor
    from repro.experiments.reporting import cache_stats_table, engine_cache_stats
    from repro.experiments.runner import discovery_for, prepare_named_instance

    extra = {} if args.source is None else {"source": args.source}
    if args.discover is not None:
        extra["discover"] = args.discover
        extra["reslice_every"] = args.reslice_every
    config = _experiment_config(
        args,
        methods=(args.method,),
        budget=args.budget,
        lam=args.lam,
        trials=1,
        extra=extra,
    )
    # Scenario defaults (e.g. dynamic_slices) apply unless --discover is given.
    discover, reslice_every = discovery_for(config)
    reslice_every = reslice_every if discover is not None else 0
    sliced, sources = prepare_named_instance(config, seed=args.seed)
    executor_kwargs = _executor_kwargs(args)
    with closing(_build_result_cache(args)) as result_cache:
        with get_executor(
            args.executor, cache=result_cache, **executor_kwargs
        ) as executor:
            tuner = SliceTuner(
                sliced,
                trainer_config=config.training_config(),
                curve_config=config.curve_config(),
                config=SliceTunerConfig(
                    lam=args.lam,
                    acquisition_rounds=args.rounds,
                    discover=discover,
                    reslice_every=reslice_every,
                ),
                random_state=args.seed + 1,
                sources=sources,
                executor=executor,
            )
            session = tuner.session()
            fulfillments = []
            session.add_hook("fulfillment", lambda f: fulfillments.append(f))
            reslices = []
            session.add_hook("reslice", lambda e: reslices.append(e))
            if args.evaluate:
                result = session.run(args.budget, strategy=args.method, lam=args.lam)
            else:
                for _ in session.stream(
                    args.budget, strategy=args.method, lam=args.lam
                ):
                    pass
                result = session.result()
        # Snapshot before closing: a disk-backed cache cannot answer stats
        # queries once its connection is released.
        cache_stats = engine_cache_stats(tuner)
        trainings_performed = tuner.estimator.trainings_performed

    def text() -> str:
        if args.quiet:
            return (
                f"method={args.method} iterations={result.n_iterations} "
                f"spent={result.spent:.2f} acquired={sum(result.total_acquired.values())}"
            )
        rows = [
            [
                f.slice_name,
                f.request.count,
                f.delivered_count,
                f.shortfall,
                f.rounds,
                f.status,
                "+".join(f.provenance) or "-",
                f.request.tag,
            ]
            for f in fulfillments
        ]
        output = format_table(
            headers=[
                "slice", "requested", "delivered", "shortfall", "rounds",
                "status", "provenance", "tag",
            ],
            rows=rows,
            title=(
                f"Fulfillment log — providers: {', '.join(tuner.provider_order)} "
                f"({len(fulfillments)} fulfillments)"
            ),
        )
        if reslices:
            output += "\n\n" + "\n".join(
                f"reslice @ iteration {e.iteration}: generation "
                f"{e.slice_generation} ({e.method}) -> "
                f"{', '.join(e.slice_names)} [{e.fingerprint[:12]}]"
                for e in reslices
            )
        output += "\n\n" + result.acquisitions_table()
        output += "\n\n" + cache_stats_table(
            cache_stats,
            trainings_performed=trainings_performed,
        )
        if args.evaluate and result.final_report is not None:
            output += "\n\n" + result.final_report.to_text()
        return output

    payload = {
        "config": {
            "dataset": args.dataset,
            "scenario": args.scenario,
            "source": args.source,
            "method": args.method,
            "budget": args.budget,
            "lam": args.lam,
            "seed": args.seed,
            "rounds": args.rounds,
            "discover": discover,
            "reslice_every": reslice_every,
        },
        "result": result.to_dict(),
        "fulfillments": [f.summary() for f in fulfillments],
        "reslices": [
            {
                "iteration": e.iteration,
                "slice_generation": e.slice_generation,
                "method": e.method,
                "fingerprint": e.fingerprint,
                "slice_names": list(e.slice_names),
            }
            for e in reslices
        ],
        "trainings_performed": trainings_performed,
        "cache": {
            name: {key: value for key, value in stats.snapshot().items() if key != "hit_rate"}
            for name, stats in cache_stats.items()
        },
    }
    return Reply("repro.run/1", payload, text)


def run_compare(args: argparse.Namespace) -> str:
    """The ``compare`` subcommand: Table-2/6-style method comparison."""
    from repro.engine.executor import get_executor
    from repro.experiments.reporting import allocations_table, methods_table
    from repro.experiments.runner import compare_methods, prepare_instance

    config = _experiment_config(
        args,
        methods=tuple(args.methods),
        budget=args.budget,
        lam=args.lam,
        trials=args.trials,
    )
    with get_executor(args.executor, **_executor_kwargs(args)) as executor:
        aggregates = compare_methods(config, include_original=True, executor=executor)
    if args.quiet:
        return "\n".join(
            f"{method} loss={aggregate.loss_mean:.3f} "
            f"avg_eer={aggregate.avg_eer_mean:.3f}"
            for method, aggregate in aggregates.items()
        )
    output = methods_table(
        aggregates,
        title=(
            f"{args.dataset} / {args.scenario} — budget {args.budget:.0f}, "
            f"lambda {args.lam}, {args.trials} trial(s)"
        ),
        method_order=["original", *args.methods],
    )
    if args.show_allocations:
        sliced, _ = prepare_instance(config, seed=args.seed)
        output += "\n\n" + allocations_table(
            {m: aggregates[m] for m in args.methods},
            slice_names=sliced.names,
            title="Mean examples acquired per slice",
        )
    return output


# -- the campaign family -----------------------------------------------------------


def _kill_after_hook() -> Callable[..., None] | None:
    """Testing aid: kill this process after N persisted iterations.

    Controlled by the ``REPRO_CAMPAIGN_KILL_AFTER`` environment variable
    (``REPRO_CAMPAIGN_KILL_SIGNAL`` picks the signal, default ``KILL``);
    the CI campaign-smoke job and the crash/resume acceptance test use it
    to kill a suite at a deterministic mid-run point and prove that
    resuming reproduces the uninterrupted results byte-for-byte.  The kill
    fires *after* the iteration's event and snapshot were committed, which
    is exactly what an external ``kill -9`` races against.  Both values
    come from outside the program, so a bad one is a usage error (exit 2).
    """
    raw = os.environ.get("REPRO_CAMPAIGN_KILL_AFTER", "0") or "0"
    try:
        kill_after = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_CAMPAIGN_KILL_AFTER must be an integer, got {raw!r}"
        ) from None
    if kill_after <= 0:
        return None
    signame = os.environ.get("REPRO_CAMPAIGN_KILL_SIGNAL", "KILL").upper()
    signum = signal.Signals.__members__.get(f"SIG{signame}")
    if signum is None:
        raise ConfigurationError(
            f"REPRO_CAMPAIGN_KILL_SIGNAL names no signal: {signame!r}"
        )
    seen = {"n": 0}

    def hook(*_args: object) -> None:
        seen["n"] += 1
        if seen["n"] >= kill_after:
            os.kill(os.getpid(), signum)

    return hook


def _campaign_progress(quiet: bool, kill_hook: Callable[..., None] | None):
    """Scheduler progress printer plus the optional deterministic-kill hook."""

    def on_progress(tick) -> None:
        if not quiet:
            state = "done" if tick.done else f"iteration {tick.iteration}"
            print(
                f"[{tick.name}] {state} — spent {tick.spent:.0f}/{tick.budget:.0f} "
                f"(lane {tick.priority})"
            )
        if kill_hook is not None:
            kill_hook(tick)

    return on_progress


def _suite_summary(results, executor, quiet: bool) -> str:
    """Render ``[(display name, TuningResult), ...]`` plus the shared cache."""
    from repro.experiments.reporting import cache_stats_table

    lines = [
        f"{name}: iterations={result.n_iterations} spent={result.spent:.2f} "
        f"acquired={sum(result.total_acquired.values())}"
        for name, result in results
    ]
    if not quiet and executor.cache is not None:
        lines.append("")
        lines.append(
            cache_stats_table(
                {"results": executor.cache.stats},
                title="Shared engine cache across campaigns",
            )
        )
    return "\n".join(lines)


def run_campaign_start(args: argparse.Namespace) -> str:
    """``campaign start``: one campaign from flags, or the builtin suite."""
    from repro.campaigns import Campaign, CampaignSpec, SqliteStore
    from repro.engine.executor import SerialExecutor
    from repro.experiments.runner import campaign_suite

    kill_hook = _kill_after_hook()
    with SqliteStore(args.store) as store:
        if args.suite:
            with closing(_build_result_cache(args)) as result_cache:
                executor = SerialExecutor(cache=result_cache)
                results = campaign_suite(
                    store=store,
                    executor=executor,
                    seed=args.seed,
                    on_progress=_campaign_progress(args.quiet, kill_hook),
                )
                return _suite_summary(list(results.items()), executor, args.quiet)
        if not args.name:
            raise ConfigurationError(
                "campaign start needs --name (or --suite for the builtin workload)"
            )
        spec = CampaignSpec.from_dict(_spec_fields(args))
        with closing(_build_result_cache(args)) as result_cache:
            campaign = Campaign.start(store, spec, result_cache=result_cache)
            if campaign.reused and campaign.is_done:
                result = campaign.result()
                return (
                    f"{campaign.campaign_id}: already completed (idempotent "
                    f"re-run) — iterations={result.n_iterations} "
                    f"spent={result.spent:.2f}"
                )
            if not args.quiet:
                campaign.add_iteration_hook(
                    lambda c, record: print(
                        f"[{c.spec.name}] iteration {record.iteration} — "
                        f"spent {c.spent:.0f}/{c.spec.budget:.0f}"
                    )
                )
            if kill_hook is not None:
                campaign.add_iteration_hook(kill_hook)
            result = campaign.run(max_steps=args.max_steps)
            if result is None:
                return (
                    f"{campaign.campaign_id}: paused after --max-steps "
                    f"{args.max_steps} iteration(s); resume with "
                    f"`campaign resume {campaign.campaign_id} --store {args.store}`"
                )
            return _campaign_result_text(campaign, result, args.quiet)


def _campaign_result_text(campaign: Campaign, result, quiet: bool) -> str:
    from repro.experiments.reporting import cache_stats_table, engine_cache_stats

    essential = (
        f"{campaign.campaign_id}: completed — iterations={result.n_iterations} "
        f"spent={result.spent:.2f} acquired={sum(result.total_acquired.values())}"
    )
    if quiet:
        return essential
    output = essential + "\n\n" + result.acquisitions_table()
    if campaign.tuner is not None:
        output += "\n\n" + cache_stats_table(
            engine_cache_stats(campaign.tuner),
            trainings_performed=campaign.tuner.estimator.trainings_performed,
        )
    if result.final_report is not None:
        output += "\n\n" + result.final_report.to_text()
    return output


def _resume_campaigns(args: argparse.Namespace, campaign_ids: list[str]) -> Reply:
    from repro.campaigns import CampaignScheduler, SqliteStore

    on_progress = _campaign_progress(args.quiet, _kill_after_hook())
    with SqliteStore(args.store) as store:
        with closing(_build_result_cache(args)) as result_cache:
            scheduler = CampaignScheduler(
                store=store, result_cache=result_cache, on_progress=on_progress
            )
            for campaign_id in campaign_ids:
                scheduler.add_existing(campaign_id)
            by_id = scheduler.run()
            # Rendered while the shared cache is still open.  Display names
            # can collide across campaigns; campaign ids cannot, so every
            # resumed campaign gets its own summary line.
            text = _suite_summary(
                [(c.spec.name, by_id[c.campaign_id]) for c in scheduler.campaigns],
                scheduler.executor,
                args.quiet,
            )
    results = {campaign_id: result.to_dict() for campaign_id, result in by_id.items()}
    return Reply(
        "repro.campaign.resume/1", {"store": args.store, "results": results}, lambda: text
    )


def run_campaign_resume(args: argparse.Namespace) -> Reply | str:
    """``campaign resume``: continue one campaign (or every unfinished one)."""
    from repro.campaigns.store import RESUMABLE, SqliteStore

    _require_id_or_all(args)
    if not args.resume_all:
        return _resume_campaigns(args, [args.campaign_id])
    with SqliteStore(args.store) as store:
        pending = [
            record.campaign_id
            for record in store.list_campaigns()
            if record.status in RESUMABLE
        ]
    if not pending:
        return "nothing to resume: every stored campaign is completed"
    return _resume_campaigns(args, pending)


def _campaigns_table(campaigns: list[dict], quiet: bool, where: str) -> str:
    """``campaign list`` / ``remote list`` text: one row per summary dict."""
    if not campaigns:
        return f"no campaigns {where}"
    if quiet:
        return "\n".join(f"{c['campaign_id']} {c['status']}" for c in campaigns)
    rows = [
        [
            c["campaign_id"],
            c["name"],
            c["status"],
            c["priority"],
            c["iterations"],
            f"{c['spent']:.0f}/{c['budget']:.0f}",
            c["generations"],
        ]
        for c in campaigns
    ]
    return format_table(
        headers=["id", "name", "status", "lane", "iters", "spent/budget", "gens"],
        rows=rows,
        title=f"Campaigns {where}",
    )


def _campaign_header(campaign: dict, progress: bool) -> str:
    """``campaign show`` / ``remote show`` header: identity, status, spec."""
    lines = [
        f"campaign {campaign['campaign_id']} ({campaign['name']})",
        f"status: {campaign['status']} — lane {campaign['priority']}, "
        f"{campaign['generations']} generation(s), "
        f"{campaign['fulfillments']} fulfillment(s)",
    ]
    if progress:
        lines.append(
            f"progress: {campaign['iterations']} iteration(s), spent "
            f"{campaign['spent']:.2f}/{campaign['budget']:.0f}"
        )
    lines.append("spec:")
    lines.extend(f"  {key} = {value}" for key, value in sorted(campaign["spec"].items()))
    return "\n".join(lines) + "\n\n"


def _show_quiet(summary: dict) -> str:
    """One campaign as the quiet line ``campaign show`` / ``remote show`` print."""
    return (
        f"{summary['campaign_id']} {summary['status']} "
        f"iterations={summary['iterations']} spent={summary['spent']:.2f}"
    )


def run_campaign_list(args: argparse.Namespace) -> Reply:
    """``campaign list``: one row per stored campaign (the ``GET /campaigns`` body)."""
    from repro.campaigns.store import campaign_summaries

    with _existing_store(args) as store:
        campaigns = campaign_summaries(store)
    return Reply(
        "repro.campaign.list/1",
        {"store": args.store, "campaigns": campaigns},
        lambda: _campaigns_table(campaigns, args.quiet, f"in {args.store}"),
    )


def run_campaign_show(args: argparse.Namespace) -> Reply:
    """``campaign show``: replay one campaign's event log.

    The campaign and its events are the ``GET /campaigns/<id>`` and
    ``GET /campaigns/<id>/log`` bodies.
    """
    from repro.campaigns.store import campaign_show

    with _existing_store(args) as store:
        campaign, events = campaign_show(store, args.campaign_id)

    def text() -> str:
        if args.quiet:
            return _show_quiet(campaign)
        rows = [
            [
                event["iteration"],
                event["generation"],
                sum(event["payload"].get("acquired", {}).values()),
                f"{event['payload'].get('spent', 0.0):.1f}",
                f"{event['payload'].get('imbalance_after', 0.0):.2f}",
            ]
            for event in events
            if event["kind"] == "iteration"
        ]
        return _campaign_header(campaign, progress=False) + format_table(
            headers=["iteration", "generation", "acquired", "spent", "imbalance"],
            rows=rows,
            title=(
                f"Replayed history — {campaign['iterations']} iteration(s), "
                f"spent {campaign['spent']:.2f}/{campaign['budget']:.0f}"
            ),
        )

    return Reply(
        "repro.campaign.show/1",
        {"store": args.store, "campaign": campaign, "events": events},
        text,
    )


# -- the persistent cache family ---------------------------------------------------


def run_cache_stats(args: argparse.Namespace) -> Reply:
    """``cache stats``: the tier/size/counter snapshot of the shared cache."""
    with closing(_build_result_cache(args, required=True)) as cache:
        tiers = cache.tier_stats()
        entries = cache.entry_stats()
        totals = cache.stats
        path = cache.path
    payload_tiers = {
        name: {**stats.snapshot(), **entries.get(name, {})} for name, stats in tiers.items()
    }
    payload = {
        "path": path,
        "tiers": payload_tiers,
        "totals": {
            **totals.snapshot(),
            # ``cache.stats`` aggregates the result path only (memory +
            # results tiers); ``gc()`` also evicts curves, so the totals row
            # sums evictions across every tier — otherwise curve evictions
            # would be invisible outside the per-tier breakdown.
            "evictions": sum(stats.evictions for stats in tiers.values()),
        },
    }

    def text() -> str:
        total = payload["totals"]
        if args.quiet:
            return (
                f"requests={total['requests']} hits={total['hits']} "
                f"misses={total['misses']}"
            )
        rows = [
            [
                name,
                tier.get("entries", "-"),
                tier.get("size_bytes", "-"),
                tier["requests"],
                tier["hits"],
                tier["misses"],
                f"{tier['hit_rate']:.0%}",
                tier["evictions"],
            ]
            for name, tier in payload_tiers.items()
        ]
        rows.append(
            [
                "total",
                sum(t.get("entries", 0) for t in payload_tiers.values()),
                sum(t.get("size_bytes", 0) for t in payload_tiers.values()),
                total["requests"],
                total["hits"],
                total["misses"],
                f"{total['hit_rate']:.0%}",
                total["evictions"],
            ]
        )
        return format_table(
            headers=[
                "tier", "entries", "bytes", "lookups", "hits", "misses",
                "hit rate", "evictions",
            ],
            rows=rows,
            title=f"Persistent cache — {path}",
        )

    return Reply("repro.cache/1", payload, text)


def run_cache_clear(args: argparse.Namespace) -> Reply:
    """``cache clear``: drop every cached result and curve."""
    with closing(_build_result_cache(args, required=True)) as cache:
        removed = cache.clear_all()
        path = cache.path
    return Reply(
        "repro.cache.clear/1",
        {"path": path, **removed},
        lambda: (
            f"cleared {path}: {removed['removed_results']} result(s), "
            f"{removed['removed_curves']} curve(s), "
            f"{removed['freed_bytes']} byte(s) freed"
        ),
    )


def run_cache_gc(args: argparse.Namespace) -> Reply:
    """``cache gc``: evict least-recently-accessed entries down to ``--max-mb``."""
    with closing(_build_result_cache(args, required=True)) as cache:
        report = cache.gc(args.max_mb)
        path = cache.path
    return Reply(
        "repro.cache.gc/1",
        {"path": path, "max_mb": args.max_mb, **report},
        lambda: (
            f"gc {path} to {args.max_mb:g} MB: evicted "
            f"{report['removed_results']} result(s), "
            f"{report['removed_curves']} curve(s), freed "
            f"{report['freed_bytes']} byte(s) "
            f"({report['remaining_bytes']} remaining)"
        ),
    )


# -- the telemetry family ----------------------------------------------------------
#
# All three read a trace directory previously recorded with ``--trace-out``
# (or ``REPRO_TRACE_DIR``); none of them installs a tracer, so inspection
# never mutates the trace being inspected.  JSON payloads share the
# ``repro.telemetry/1`` schema tag.


def run_telemetry_spans(args: argparse.Namespace) -> Reply:
    """``telemetry spans``: the recorded span log (newest last)."""
    trace_dir = _require_trace_dir(args)
    spans = telemetry.read_spans(trace_dir)
    if args.span_name is not None:
        spans = [s for s in spans if s.get("name") == args.span_name]
    if args.limit > 0:
        spans = spans[-args.limit :]

    def text() -> str:
        if args.quiet:
            return f"{len(spans)} span(s) in {trace_dir}"
        rows = [
            [
                s.get("name", "?"),
                s.get("span_id", ""),
                s.get("parent_id") or "-",
                s.get("sequence", 0),
                s.get("status", "?"),
                f"{float(s.get('duration') or 0.0):.6f}",
            ]
            for s in spans
        ]
        return format_table(
            headers=["name", "span id", "parent", "seq", "status", "seconds"],
            rows=rows,
            title=f"Trace spans — {trace_dir} ({len(spans)} span(s))",
        )

    payload = {"trace_dir": trace_dir, "kind": "spans", "span_count": len(spans), "spans": spans}
    return Reply("repro.telemetry/1", payload, text)


def _quantiles(snapshot: dict) -> dict:
    """Bucket-interpolated quantiles of every histogram in a metrics snapshot."""
    return {
        name: telemetry.histogram_quantiles(data)
        for name, data in sorted(snapshot.get("histograms", {}).items())
    }


def run_telemetry_metrics(args: argparse.Namespace) -> Reply:
    """``telemetry metrics``: the merged counter/gauge/histogram snapshot."""
    trace_dir = _require_trace_dir(args)
    snapshot = telemetry.read_metrics(trace_dir)
    quantiles = _quantiles(snapshot)

    def text() -> str:
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        if args.quiet:
            return (
                f"{len(counters)} counter(s), {len(gauges)} gauge(s), "
                f"{len(histograms)} histogram(s) in {trace_dir}"
            )
        rows = [["counter", name, value] for name, value in sorted(counters.items())]
        rows += [["gauge", name, value] for name, value in sorted(gauges.items())]
        rows += [
            [
                "histogram",
                name,
                f"n={data.get('count', 0)} sum={data.get('sum', 0.0):.6f} "
                + " ".join(
                    f"{label}={value:.6f}"
                    for label, value in quantiles[name].items()
                    if value is not None
                ),
            ]
            for name, data in sorted(histograms.items())
        ]
        if not rows:
            return f"no metrics recorded under {trace_dir}"
        return format_table(
            headers=["instrument", "name", "value"],
            rows=rows,
            title=f"Metrics snapshot — {trace_dir}",
        )

    payload = {"trace_dir": trace_dir, "kind": "metrics", "metrics": snapshot, "quantiles": quantiles}
    return Reply("repro.telemetry/1", payload, text)


def run_telemetry_summary(args: argparse.Namespace) -> Reply:
    """``telemetry summary``: per-span-name timing rollup plus latency quantiles."""
    trace_dir = _require_trace_dir(args)
    total, summary = telemetry.summarize_spans(telemetry.read_spans(trace_dir))
    metrics = telemetry.read_metrics(trace_dir)
    quantiles = _quantiles(metrics)

    def text() -> str:
        if args.quiet:
            return f"{total} span(s) across {len(summary)} name(s) in {trace_dir}"
        rows = [
            [
                name,
                entry["count"],
                entry["errors"],
                f"{entry['total_seconds']:.6f}",
                f"{entry['mean_seconds']:.6f}",
                f"{entry['max_seconds']:.6f}",
            ]
            for name, entry in summary.items()
        ]
        if not rows:
            return f"no spans recorded under {trace_dir}"
        out = format_table(
            headers=["span", "count", "errors", "total s", "mean s", "max s"],
            rows=rows,
            title=f"Span summary — {trace_dir} ({total} span(s))",
        )
        quantile_rows = [
            [name, f"{q['p50']:.6f}", f"{q['p95']:.6f}", f"{q['p99']:.6f}"]
            for name, q in quantiles.items()
            if q.get("p50") is not None
        ]
        if quantile_rows:
            out += "\n\n" + format_table(
                headers=["histogram", "p50 s", "p95 s", "p99 s"],
                rows=quantile_rows,
                title="Latency quantiles (bucket-interpolated)",
            )
        return out

    payload = {
        "trace_dir": trace_dir,
        "kind": "summary",
        "span_count": total,
        "spans": summary,
        "counters": metrics.get("counters", {}),
        "quantiles": quantiles,
    }
    return Reply("repro.telemetry/1", payload, text)


# -- the analytics report family ---------------------------------------------------


def run_report(args: argparse.Namespace) -> Reply:
    """``report``: render one analytics report over a campaign store.

    The payload comes from the same builder the daemon's report endpoints
    use (:meth:`Analytics.report <repro.analytics.refresh.Analytics>`), so
    ``report <kind> --json`` and ``GET /reports/summary?kind=<kind>`` emit
    equal JSON for the same store.  ``--verify`` first compares every SQL
    view row-for-row against the pure-Python reference implementation and
    exits 2 on the first mismatch.
    """
    from repro.analytics import Analytics, assert_consistent
    from repro.experiments.reporting import report_tables

    with _existing_store(args) as store:
        with Analytics(store, path=args.analytics_path) as analytics:
            refreshed = analytics.rebuild() if args.rebuild else analytics.refresh()
            verified = assert_consistent(store, analytics) if args.verify else None
            payload = analytics.report(args.report_kind, args.campaign_id)
    if verified is not None:
        payload["verified"] = verified

    def text() -> str:
        if args.quiet:
            rows = sum(len(section["rows"]) for section in payload["sections"].values())
            line = f"{args.report_kind} {rows} row(s) through seq {payload['cursor']}"
            if verified is not None:
                line += f" — verified {sum(verified.values())} view row(s)"
            return line
        output = report_tables(payload)
        if verified is not None:
            output += (
                "\n\nverified: every SQL view matches its Python reference "
                f"({sum(verified.values())} row(s) across "
                f"{len(verified)} view(s))"
            )
        if refreshed["events_seen"]:
            output += (
                f"\nrefreshed: {refreshed['events_seen']} new event(s) "
                f"mirrored incrementally"
            )
        return output

    return Reply(payload["schema"], payload, text)


# -- the health & alerting family --------------------------------------------------
#
# Everything here reads the same durable surfaces the daemon serves:
# ``monitor alerts`` prints the ``GET /alerts`` body, replayed from the
# store's ``alert`` events exactly as the ``alert_history`` analytics view.


def _alerts_table(alerts: list[dict], title: str) -> str:
    return format_table(
        headers=[
            "campaign", "seq", "iter", "rule", "severity", "state",
            "value", "threshold",
        ],
        rows=[
            [
                row["campaign_id"],
                row["seq"],
                row["iteration"],
                row["rule"],
                row["severity"],
                row["state"],
                f"{row['value']:.6g}",
                f"{row['threshold']:g}",
            ]
            for row in alerts
        ],
        title=title,
    )


def _health_table(verdict: dict, title: str) -> str:
    rows = []
    for name, component in verdict["components"].items():
        notes = "; ".join(
            f"{alert['rule']} {alert['state']} ({alert['severity']})"
            for alert in component["alerts"]
        )
        rows.append([name, component["status"], notes or "-"])
    out = format_table(
        headers=["component", "status", "alerts"],
        rows=rows,
        title=title,
    )
    return out + f"\noverall: {verdict['status']}"


def run_monitor_rules(args: argparse.Namespace) -> Reply:
    """``monitor rules``: every registered alert rule and its thresholds."""
    from repro.monitor import available_rules, get_rule

    rules = [get_rule(name).to_dict() for name in available_rules()]

    def text() -> str:
        if args.quiet:
            return f"{len(rules)} alert rule(s) registered"
        return format_table(
            headers=[
                "rule", "scope", "component", "signal", "breach",
                "window", "min", "severity", "debounce",
            ],
            rows=[
                [
                    rule["name"],
                    rule["scope"],
                    rule["component"],
                    rule["signal"],
                    f"{rule['predicate']} {rule['threshold']:g}",
                    rule["window"],
                    rule["min_samples"],
                    rule["severity"],
                    rule["debounce"],
                ]
                for rule in rules
            ],
            title="Registered alert rules",
        )

    return Reply("repro.monitor/1", {"kind": "rules", "count": len(rules), "rules": rules}, text)


def run_monitor_alerts(args: argparse.Namespace) -> Reply:
    """``monitor alerts``: the durable alert history (the ``GET /alerts`` body)."""
    from repro.monitor import alert_payload

    with _existing_store(args) as store:
        payload = alert_payload(store, args.campaign_id)
    alerts = payload["alerts"]

    def text() -> str:
        if args.quiet:
            fired = sum(1 for row in alerts if row["state"] == "fired")
            return f"{len(alerts)} alert row(s) ({fired} fired) in {args.store}"
        if not alerts:
            return f"no alerts recorded in {args.store}"
        return _alerts_table(alerts, f"Alert history — {args.store} ({len(alerts)} row(s))")

    return Reply("repro.monitor/1", {"kind": "alerts", **payload}, text)


def run_monitor_status(args: argparse.Namespace) -> Reply:
    """``monitor status``: the per-component health verdict folded from a store."""
    from repro.monitor import HealthEvaluator

    with _existing_store(args) as store:
        verdict = HealthEvaluator().health(store=store)
    return Reply(
        "repro.monitor/1",
        {"kind": "status", "health": verdict},
        lambda: (
            f"{verdict['status']} — {args.store}"
            if args.quiet
            else _health_table(verdict, title=f"Campaign health — {args.store}")
        ),
    )


def _watch_reply(args: argparse.Namespace, frame: int, verdict: dict, alerts: dict) -> Reply:
    """One ``monitor watch`` frame: the daemon's health plus its recent alerts."""

    def text() -> str:
        if args.quiet:
            return f"frame {frame}: {verdict['status']} — {alerts['count']} alert row(s)"
        out = _health_table(verdict, title=f"Tuner health — {args.url} (frame {frame})")
        recent = alerts["alerts"][-8:]
        if not recent:
            return out + "\n\nno alerts recorded"
        return out + "\n\n" + _alerts_table(
            recent, f"Alert history — newest {len(recent)} of {alerts['count']} row(s)"
        )

    payload = {"kind": "watch", "frame": frame, "health": verdict, "alerts": alerts}
    return Reply("repro.monitor/1", payload, text)


def run_monitor_watch(args: argparse.Namespace) -> Reply | str:
    """``monitor watch``: poll a daemon's ``/health/deep`` and ``/alerts`` live."""
    client = _client(args)
    interval = max(float(args.interval), 0.1)
    deadline = time.monotonic() + args.max_seconds if args.max_seconds > 0 else None
    frame = 0
    reply: Reply | str = ""
    try:
        while True:
            verdict = client.health_deep()
            alerts = client.alerts()
            frame += 1
            reply = _watch_reply(args, frame, verdict, alerts)
            if args.once or (deadline is not None and time.monotonic() >= deadline):
                return reply
            print(_render(args, reply), flush=True)
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return reply


def run_monitor_bench(args: argparse.Namespace) -> Reply:
    """``monitor bench``: fresh benchmark results vs the committed references.

    Regressions print the report, then exit 2 so CI fails.
    """
    from repro.monitor import watchdog

    try:
        with open(args.fresh, "r", encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot read fresh benchmark results {args.fresh!r}: {error}"
        ) from None
    if not isinstance(fresh, dict):
        raise ConfigurationError(
            f"{args.fresh!r} must hold a JSON object mapping benchmark "
            f"names to their metric dicts"
        )
    if args.benchmark is not None:
        if args.benchmark not in fresh:
            raise ConfigurationError(
                f"no benchmark {args.benchmark!r} in {args.fresh!r}; "
                f"present: {', '.join(sorted(fresh)) or 'none'}"
            )
        fresh = {args.benchmark: fresh[args.benchmark]}
    verdict = watchdog(args.reference_dir, fresh)

    def text() -> str:
        if args.quiet:
            return (
                f"{verdict['status']} — {len(verdict['checked'])} "
                f"benchmark(s) checked, {len(verdict['regressions'])} "
                f"regression(s)"
            )
        lines = [f"checked: {', '.join(verdict['checked']) or 'none'}"]
        if verdict["unmatched"]:
            lines.append(
                "unmatched (no committed reference): " + ", ".join(verdict["unmatched"])
            )
        if verdict["regressions"]:
            lines.append("")
            lines.append(format_table(
                headers=[
                    "benchmark", "metric", "reference", "fresh",
                    "limit", "severity",
                ],
                rows=[
                    [
                        reg["benchmark"],
                        reg["metric"],
                        reg["reference"],
                        reg["fresh"],
                        reg["limit"] if reg["limit"] is not None else "-",
                        reg["severity"],
                    ]
                    for reg in verdict["regressions"]
                ],
                title="Benchmark regressions",
            ))
        else:
            lines.append("no regressions")
        lines.append(f"overall: {verdict['status']}")
        return "\n".join(lines)

    reply = Reply("repro.monitor/1", {"kind": "bench", **verdict}, text)
    if verdict["regressions"]:
        # Exit 2 for CI after the report is visible on stdout.
        print(_render(args, reply), flush=True)
        raise ConfigurationError(
            f"{len(verdict['regressions'])} benchmark regression(s) "
            f"against {args.reference_dir}"
        )
    return reply


# -- the serve daemon and its remote clients ---------------------------------------


def run_serve(args: argparse.Namespace) -> str:
    """``serve``: the tuner service daemon, until SIGTERM/SIGINT drains it.

    The status line printed on startup (and the drain summary on exit) are
    ``--quiet``-compatible: one line each, so supervisors can log them.  A
    graceful drain checkpoints and pauses every unfinished campaign — a
    restarted daemon with ``--resume-all`` continues each one
    byte-identically.
    """
    from repro.campaigns import SqliteStore
    from repro.experiments.reporting import server_stats_table, server_status_line
    from repro.serve import TunerServer, TunerService

    store = SqliteStore(args.store)
    result_cache = _build_result_cache(args)
    app = TunerService(store=store, result_cache=result_cache)
    resumed = app.resume_all() if args.resume_all else []
    app.start()
    server = TunerServer(
        app,
        host=args.host,
        port=args.port,
        log=None if args.quiet else lambda line: print(line, file=sys.stderr),
    )
    server.start_background()
    stop = threading.Event()

    def request_stop(signum: int, frame: object) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, request_stop)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"serving on {server.url} — store {args.store}, "
        f"{len(resumed)} campaign(s) resumed",
        flush=True,
    )
    try:
        while not stop.wait(0.2):
            pass
    finally:
        # Flush the metrics snapshot to --trace-out *before* the drain and
        # keep the benign signal handlers installed through it: a second
        # SIGTERM mid-drain must not kill the process with the telemetry
        # still buffered in memory.
        telemetry.flush_metrics()
        stats = app.server_stats()
        summary = app.drain()
        server.shutdown()
        result_cache.close()
        store.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    line = (
        f"drained — {len(summary['suspended'])} campaign(s) suspended; "
        f"{server_status_line(stats)}"
    )
    if args.quiet:
        return line
    return line + "\n\n" + server_stats_table(stats)


def _client(args: argparse.Namespace) -> TunerClient:
    """The HTTP client for ``--url`` (the ``remote`` and ``monitor watch`` leaves)."""
    from repro.serve.client import TunerClient

    return TunerClient(args.url, timeout=args.timeout)


def run_remote_submit(args: argparse.Namespace) -> Reply:
    """``remote submit``: submit the flags' CampaignSpec (``--wait``: until done)."""
    client = _client(args)
    submitted = client.submit(_spec_fields(args))
    campaign_id = submitted["campaign_id"]
    if not args.wait:
        reused = ", reused" if submitted["reused"] else ""
        return Reply(
            "repro.remote.submit/1",
            {"submitted": submitted},
            lambda: f"{campaign_id}: submitted ({submitted['status']}{reused})",
        )
    client.wait(campaign_id, timeout=args.timeout)
    summary = client.show(campaign_id)
    payload = {"submitted": submitted, "campaign": summary}
    if args.json_output:
        # Only the JSON form carries the result: text skips the request.
        payload["result"] = client.result(campaign_id)
    return Reply("repro.remote.submit/1", payload, lambda: _show_quiet(summary))


def run_remote_list(args: argparse.Namespace) -> Reply:
    """``remote list``: the daemon's campaigns."""
    campaigns = _client(args).list_campaigns()
    return Reply(
        "repro.remote.list/1",
        {"url": args.url, "campaigns": campaigns},
        lambda: _campaigns_table(campaigns, args.quiet, f"at {args.url}"),
    )


def run_remote_show(args: argparse.Namespace) -> Reply:
    """``remote show``: one campaign's progress plus the daemon's health table."""
    from repro.experiments.reporting import server_stats_table

    client = _client(args)
    summary = client.show(args.campaign_id)
    stats = client.stats()
    return Reply(
        "repro.remote.show/1",
        {"campaign": summary, "stats": stats},
        lambda: (
            _show_quiet(summary)
            if args.quiet
            else _campaign_header(summary, progress=True) + server_stats_table(stats)
        ),
    )


def run_remote_tail(args: argparse.Namespace) -> Reply:
    """``remote tail``: stream a campaign's events live (SSE).

    Text mode prints each frame as it arrives; ``--json`` collects them
    into one object printed at the end.
    """
    client = _client(args)
    frames = []
    for frame in client.tail(
        args.campaign_id, after=args.after, reconnect=args.reconnect
    ):
        frames.append(frame)
        if args.json_output or frame["event"] == "end":
            continue  # printed as one object / summarized by the reply
        if frame["event"] == "tick":
            if not args.quiet:
                data = frame["data"]
                print(
                    f"[tick] {data['name']} iteration {data['iteration']} — "
                    f"spent {data['spent']:.0f}/{data['budget']:.0f}",
                    flush=True,
                )
            continue
        print(
            f"{frame['id']} {frame['event']} "
            f"{json.dumps(frame['data']['payload'], sort_keys=True)}",
            flush=True,
        )
    end = frames[-1]["data"] if frames and frames[-1]["event"] == "end" else {}
    return Reply(
        "repro.remote.tail/1",
        {"campaign_id": args.campaign_id, "frames": frames},
        lambda: (
            f"{args.campaign_id} {end.get('status', '?')} "
            f"(last event seq {end.get('last_seq', client.last_event_id)})"
        ),
    )


def run_remote_result(args: argparse.Namespace) -> Reply:
    """``remote result``: a completed campaign's TuningResult."""
    result = _client(args).result(args.campaign_id)
    acquired = sum(result.get("total_acquired", {}).values())
    return Reply(
        "repro.remote.result/1",
        {"campaign_id": args.campaign_id, "result": result},
        lambda: (
            f"{args.campaign_id}: method={result['method']} "
            f"iterations={len(result.get('iterations', []))} "
            f"spent={result['spent']:.2f} acquired={acquired}"
        ),
    )


def run_remote_wait(args: argparse.Namespace) -> Reply:
    """``remote wait``: block until a campaign completes."""
    summary = _client(args).wait(args.campaign_id, timeout=args.timeout)
    return Reply("repro.remote.wait/1", {"campaign": summary}, lambda: _show_quiet(summary))


def run_remote_pause(args: argparse.Namespace) -> Reply:
    """``remote pause``: checkpoint and pause a running campaign."""
    outcome = _client(args).pause(args.campaign_id)
    state = "paused" if outcome["paused"] else "not pausable (done or idle)"
    return Reply("repro.remote.pause/1", outcome, lambda: f"{args.campaign_id}: {state}")


def run_remote_resume(args: argparse.Namespace) -> Reply:
    """``remote resume``: re-activate one paused/stored campaign, or ``--all``."""
    client = _client(args)
    _require_id_or_all(args)
    if args.resume_all:
        resumed = client.resume_all()
        return Reply(
            "repro.remote.resume/1",
            {"resumed": resumed},
            lambda: "\n".join(f"{campaign_id} resumed" for campaign_id in resumed)
            or "nothing to resume: every stored campaign is completed",
        )
    outcome = client.resume(args.campaign_id)
    return Reply(
        "repro.remote.resume/1",
        {"resumed": [outcome]},
        lambda: f"{args.campaign_id}: {outcome['status']}",
    )


def run_remote_stats(args: argparse.Namespace) -> Reply:
    """``remote stats``: the daemon's health table."""
    from repro.experiments.reporting import server_stats_table, server_status_line

    stats = _client(args).stats()
    return Reply(
        "repro.remote.stats/1",
        {"url": args.url, "stats": stats},
        lambda: (
            server_status_line(stats)
            if args.quiet
            else server_stats_table(stats, title=f"Tuner service health — {args.url}")
        ),
    )


def run_strategies(args: argparse.Namespace) -> Reply:
    """The ``strategies`` subcommand: list the acquisition-strategy registry."""
    from repro.core.registry import get_strategy, strategy_descriptions

    strategies = [
        {
            "name": name,
            "kind": "iterative" if get_strategy(name).is_iterative else "one-shot",
            "uses_lambda": get_strategy(name).uses_lam,
            "description": description,
        }
        for name, description in strategy_descriptions().items()
    ]
    return Reply(
        "repro.strategies/1",
        {"strategies": strategies},
        lambda: (
            "\n".join(s["name"] for s in strategies)
            if args.quiet
            else format_table(
                headers=["strategy", "kind", "uses lambda", "description"],
                rows=[
                    [s["name"], s["kind"], "yes" if s["uses_lambda"] else "no", s["description"]]
                    for s in strategies
                ],
                title="Registered acquisition strategies",
            )
        ),
    )


def run_sources(args: argparse.Namespace) -> Reply:
    """The ``sources`` subcommand: list the data-source provider registry."""
    from repro.acquisition.providers import source_descriptions

    descriptions = source_descriptions()
    return Reply(
        "repro.sources/1",
        {
            "sources": [
                {"name": name, "description": description}
                for name, description in descriptions.items()
            ]
        },
        lambda: (
            "\n".join(descriptions)
            if args.quiet
            else format_table(
                headers=["source", "description"],
                rows=[[name, description] for name, description in descriptions.items()],
                title="Registered data-source providers",
            )
        ),
    )


# -- the command table --------------------------------------------------------------

#: Help of each command group (the first word of a two-word leaf path).
GROUPS = {
    "campaign": "durable campaign runs: start, resume, list, show",
    "cache": "inspect and maintain the persistent shared result/curve cache",
    "telemetry": "inspect a recorded trace directory: spans, metrics, summary",
    "remote": "drive a running tuner service daemon over HTTP",
    "monitor": "health & alerting: SLO rules, alert history, live dashboard",
}

#: Every leaf command as ``(path, handler, help, flags)``; the module
#: docstring lists the same inventory.
LEAVES = (
    ("curves", run_curves, "estimate per-slice learning curves", COMMON),
    (
        "discover",
        run_discover,
        "run a slice-discovery method once and print the partition",
        COMMON + JSON + (
            _flag(
                "--method",
                default="kmeans",
                type=_discovery,
                metavar="METHOD",
                help="registered discovery method to fit (default: kmeans)",
            ),
            _flag(
                "--list",
                action="store_true",
                dest="list_methods",
                help="list the registered discovery methods and exit",
            ),
        ),
    ),
    ("plan", run_plan, "print the One-shot acquisition plan for a budget", COMMON + BUDGET),
    (
        "run",
        run_run,
        "run one strategy end to end and print the fulfillment log",
        COMMON + BUDGET + EXECUTOR + CACHE_DIR + TRACE_OUT + JSON + DISCOVERY + (
            METHOD,
            SOURCE,
            _flag(
                "--rounds",
                type=int,
                default=1,
                help="routing rounds per acquisition request (re-ask throttled or "
                "partially-delivering providers up to this many times per batch)",
            ),
            _flag(
                "--evaluate",
                action="store_true",
                help="also train and evaluate the model before and after acquisition",
            ),
            _flag(
                "--resume",
                metavar="CAMPAIGN_ID",
                default=None,
                help="instead of a fresh run, resume the stored campaign from its "
                "latest snapshot (shorthand for `campaign resume CAMPAIGN_ID`)",
            ),
            _flag(
                "--store",
                default=DEFAULT_STORE,
                help=f"campaign store used by --resume (default: {DEFAULT_STORE})",
            ),
        ),
    ),
    (
        "compare",
        run_compare,
        "compare acquisition methods over trials",
        COMMON + BUDGET + EXECUTOR + (
            _flag(
                "--methods",
                nargs="+",
                default=["uniform", "water_filling", "moderate"],
                type=_method,
                metavar="STRATEGY",
                help="registered strategy names to compare (see the strategies subcommand)",
            ),
            _flag("--trials", type=int, default=2, help="independently seeded repetitions"),
            _flag(
                "--show-allocations",
                action="store_true",
                help="also print the mean per-slice acquisitions (Table 3 style)",
            ),
        ),
    ),
    (
        "campaign start",
        run_campaign_start,
        "start a new campaign (or the builtin --suite), persisting every iteration",
        STORE + TRACE_OUT + SPEC + (
            _flag("--name", default=None, help="campaign name (required unless --suite)"),
            _flag(
                "--max-steps",
                type=int,
                default=None,
                help="pause (checkpointed) after this many iterations instead of "
                "running to completion",
            ),
            _flag(
                "--suite",
                action="store_true",
                help="run the builtin campaign_suite: 3 heterogeneous campaigns "
                "multiplexed over one shared engine executor",
            ),
        ),
    ),
    (
        "campaign resume",
        run_campaign_resume,
        "resume stored campaigns after a pause or crash",
        STORE + TRACE_OUT + ID_OR_ALL + JSON,
    ),
    ("campaign list", run_campaign_list, "list every stored campaign", STORE + JSON),
    (
        "campaign show",
        run_campaign_show,
        "replay one campaign's event log into a progress report",
        STORE + JSON + CAMPAIGN_ID,
    ),
    (
        "serve",
        run_serve,
        "run the tuner service daemon (HTTP campaign API + SSE streams)",
        STORE + TRACE_OUT + (
            _flag("--host", default=DEFAULT_HOST, help="bind address"),
            _flag(
                "--port",
                type=int,
                default=DEFAULT_PORT,
                help=f"bind port; 0 picks a free one (default: {DEFAULT_PORT})",
            ),
            _flag(
                "--resume-all",
                action="store_true",
                dest="resume_all",
                help="re-activate every unfinished stored campaign on startup",
            ),
        ),
    ),
    (
        "cache stats",
        run_cache_stats,
        "tiered hit/miss/size statistics of the shared cache",
        CACHE_DIR + QUIET + JSON,
    ),
    (
        "cache clear",
        run_cache_clear,
        "drop every cached result and curve (keeps statistics)",
        CACHE_DIR + QUIET + JSON,
    ),
    (
        "cache gc",
        run_cache_gc,
        "evict least-recently-accessed entries until the cache fits",
        CACHE_DIR + QUIET + JSON + (
            _flag(
                "--max-mb",
                type=float,
                required=True,
                dest="max_mb",
                help="target payload size in megabytes (LRU eviction by last access)",
            ),
        ),
    ),
    (
        "telemetry spans",
        run_telemetry_spans,
        "the recorded span log (newest last)",
        TRACE_DIR + (
            _flag(
                "--name",
                default=None,
                dest="span_name",
                help="only spans with this name (e.g. session.iteration)",
            ),
            _flag("--limit", type=int, default=0, help="print only the newest N spans (0 = all)"),
        ),
    ),
    (
        "telemetry metrics",
        run_telemetry_metrics,
        "the merged counter/gauge/histogram snapshot",
        TRACE_DIR,
    ),
    (
        "telemetry summary",
        run_telemetry_summary,
        "per-span-name timing rollup (count/mean/max/errors)",
        TRACE_DIR,
    ),
    (
        "report",
        run_report,
        "analytics reports: SQL views over the campaign event log",
        STORE + JSON + (
            _flag(
                "report_kind",
                choices=(
                    "summary", "slices", "fulfillment", "fairness", "cache",
                    "telemetry", "alerts",
                ),
                help="which report to render (each is one or two analytics views)",
            ),
            _flag(
                "--campaign",
                default=None,
                dest="campaign_id",
                help="restrict the report to one campaign id (not valid for fairness)",
            ),
            _flag(
                "--analytics",
                default=None,
                dest="analytics_path",
                help="analytics database path (default: <store>.analytics)",
            ),
            _flag(
                "--rebuild",
                action="store_true",
                help="rebuild the analytics mirror from scratch instead of the "
                "incremental cursor refresh (the two are byte-identical; this "
                "exists to prove it and to recover a corrupted mirror)",
            ),
            _flag(
                "--verify",
                action="store_true",
                help="cross-check every SQL view row-for-row against the pure-Python "
                "reference before reporting (exit 2 on any mismatch)",
            ),
        ),
    ),
    (
        "remote submit",
        run_remote_submit,
        "submit a campaign spec to the daemon",
        URL + SPEC + (
            _flag("--name", required=True, help="campaign name"),
            _flag(
                "--wait",
                action="store_true",
                help="block until the campaign completes and print its summary",
            ),
        ),
    ),
    ("remote list", run_remote_list, "list the daemon's campaigns", URL),
    (
        "remote show",
        run_remote_show,
        "one campaign's progress plus the daemon's health table",
        URL + CAMPAIGN_ID,
    ),
    (
        "remote tail",
        run_remote_tail,
        "stream a campaign's events live (SSE)",
        URL + CAMPAIGN_ID + (
            _flag(
                "--after",
                type=int,
                default=0,
                help="resume cursor: only stream events with seq > AFTER",
            ),
            _flag(
                "--reconnect",
                type=int,
                default=0,
                help="retry dropped connections this many times (resuming from the cursor)",
            ),
        ),
    ),
    ("remote result", run_remote_result, "fetch a completed campaign's TuningResult", URL + CAMPAIGN_ID),
    ("remote wait", run_remote_wait, "block until a campaign completes", URL + CAMPAIGN_ID),
    ("remote pause", run_remote_pause, "checkpoint + pause a running campaign", URL + CAMPAIGN_ID),
    ("remote resume", run_remote_resume, "re-activate paused/stored campaigns", URL + ID_OR_ALL),
    ("remote stats", run_remote_stats, "the daemon's health table", URL),
    (
        "monitor rules",
        run_monitor_rules,
        "list every registered alert rule and its thresholds",
        QUIET + JSON,
    ),
    (
        "monitor alerts",
        run_monitor_alerts,
        "the durable alert history replayed from a store",
        STORE + JSON + (
            _flag("--campaign", default=None, dest="campaign_id", help="restrict to one campaign id"),
        ),
    ),
    (
        "monitor status",
        run_monitor_status,
        "per-component health verdict folded from a store's alerts",
        STORE + JSON,
    ),
    (
        "monitor watch",
        run_monitor_watch,
        "live dashboard: poll a daemon's /health/deep and /alerts",
        URL + (
            _flag(
                "--interval",
                type=float,
                default=2.0,
                help="seconds between refreshes (default: 2.0)",
            ),
            _flag(
                "--max-seconds",
                type=float,
                default=0.0,
                help="stop after this many seconds (0 = run until interrupted)",
            ),
            _flag("--once", action="store_true", help="render a single frame and exit"),
        ),
    ),
    (
        "monitor bench",
        run_monitor_bench,
        "benchmark-regression watchdog: fresh results vs committed BENCH_*.json references",
        QUIET + JSON + (
            _flag(
                "--fresh",
                required=True,
                help="JSON file of freshly measured benchmark results "
                "({benchmark: {metric: value}})",
            ),
            _flag("--benchmark", default=None, help="restrict the comparison to one benchmark name"),
            _flag(
                "--reference-dir",
                default="benchmarks",
                help="directory holding the committed BENCH_*.json references "
                "(default: benchmarks)",
            ),
        ),
    ),
    ("strategies", run_strategies, "list every registered acquisition strategy", QUIET + JSON),
    ("sources", run_sources, "list every registered data-source provider", QUIET + JSON),
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser from :data:`LEAVES`.

    Each leaf's subparser carries its handler (``args.handler``) and its
    path (``args.leaf``) as defaults.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Slice Tuner: selective data acquisition (SIGMOD 2021 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, handler, help_text, flags in LEAVES:
        *group, name = path.split()
        subparsers = commands
        if group:
            if group[0] not in groups:
                groups[group[0]] = commands.add_parser(
                    group[0], help=GROUPS[group[0]]
                ).add_subparsers(dest=f"{group[0]}_command", required=True)
            subparsers = groups[group[0]]
        leaf = subparsers.add_parser(name, help=help_text)
        for names, options in flags:
            leaf.add_argument(*names, **options)
        leaf.set_defaults(handler=handler, leaf=path)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes are consistent across subcommands: 0 on success, 2 for
    configuration/usage errors (unknown strategy, unknown campaign id,
    invalid flag combinations — the same code argparse uses for parse
    errors).  Unexpected exceptions propagate as tracebacks.
    """
    args = build_parser().parse_args(argv)
    # Tracing lifecycle: commands that declare --trace-out get a live
    # tracer plus a fresh metrics registry for their whole run (so the
    # written snapshot covers exactly this command); shutdown flushes the
    # metrics next to the span log even when the command errors out.
    trace_dir = _resolve_trace_dir(args)
    previous_registry = None
    if trace_dir is not None:
        telemetry.configure(trace_dir=trace_dir)
        previous_registry = telemetry.set_registry(telemetry.MetricsRegistry())
    try:
        output = _render(args, args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if trace_dir is not None:
            telemetry.shutdown()
            telemetry.set_registry(previous_registry)
    if output:
        print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
