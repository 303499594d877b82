"""Command-line interface for the Slice Tuner reproduction.

Thirteen subcommands cover the common workflows without writing any Python:

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
  cursor.  ``--verify`` cross-checks every view row-for-row against a pure
  Python reference; ``--json`` emits the same ``repro.report/1`` payload
  the daemon serves at ``/reports/summary`` and ``/campaigns/<id>/report``.
* ``strategies`` — list every registered acquisition strategy.
* ``sources`` — list every registered data-source provider.

Every subcommand accepts ``--quiet`` (print only essential results) and the
process exits with code 0 on success, 2 on configuration/usage errors (the
same code argparse uses), and a raised traceback only for genuine bugs.
``run``, ``campaign``, ``report``, ``cache``, ``telemetry``,
``strategies``, ``sources``,
and the ``remote`` commands also accept ``--json`` for machine-readable
output: one JSON object on stdout carrying a ``schema`` tag (e.g.
``repro.run/1``) that stays stable across releases — the README documents
the full tag inventory.

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
from typing import Callable, Sequence

from repro.acquisition.providers import source_descriptions
from repro.analytics import Analytics, assert_consistent
from repro.campaigns import (
    RESUMABLE,
    Campaign,
    CampaignScheduler,
    CampaignSpec,
    SqliteStore,
    campaign_summary,
    replay_events,
)
from repro.core.registry import (
    available_strategies,
    get_strategy,
    is_registered,
    strategy_descriptions,
)
from repro.datasets.registry import available_tasks
from repro.engine.cache import InMemoryResultCache, ResultCache
from repro.engine.diskcache import SqliteResultCache, default_cache_path
from repro.engine.executor import SerialExecutor, available_executors, get_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import (
    allocations_table,
    cache_stats_table,
    engine_cache_stats,
    methods_table,
    report_tables,
    server_stats_table,
    server_status_line,
)
from repro.experiments.runner import (
    SOURCE_KINDS,
    campaign_suite,
    compare_methods,
    discovery_for,
    prepare_instance,
    prepare_named_instance,
)
from repro.experiments.scenarios import list_scenarios
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.slices.discovery import (
    available_discovery_methods,
    discovery_method_descriptions,
    get_discovery_method,
    is_discovery_method,
)
from repro.serve import TunerClient, TunerServer, TunerService
from repro import telemetry
from repro.monitor import (
    HealthEvaluator,
    alert_history,
    available_rules,
    get_rule,
    watchdog,
)
from repro.utils.exceptions import ConfigurationError, ReproError
from repro.utils.tables import format_table

#: Default campaign store location for the ``campaign`` family of commands.
DEFAULT_STORE = "campaigns.sqlite"

#: Default bind/connect endpoint for ``serve`` and the ``remote`` commands.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8731
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


def _json_output(schema: str, payload: dict) -> str:
    """Render one machine-readable result object (the ``--json`` mode).

    Every payload carries a ``schema`` tag (``repro.<command>/<version>``)
    so downstream tooling can detect breaking changes; keys are sorted for
    diff-stable output.
    """
    return json.dumps({"schema": schema, **payload}, indent=2, sort_keys=True)


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """The persistent cache directory: ``--cache-dir`` flag, then env var.

    ``REPRO_CACHE_DIR`` lets supervisors and CI point every invocation at
    one shared cache without touching each command line; ``None`` means
    per-process in-memory caching (the previous behavior).
    """
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return cache_dir


def _build_result_cache(args: argparse.Namespace) -> ResultCache:
    """The result cache a subcommand should use.

    With a cache directory configured this is a process-shared, restart-
    surviving :class:`~repro.engine.diskcache.SqliteResultCache`; without
    one, the classic per-process :class:`InMemoryResultCache`.
    """
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        return InMemoryResultCache()
    os.makedirs(cache_dir, exist_ok=True)
    return SqliteResultCache(default_cache_path(cache_dir))


def _require_disk_cache(args: argparse.Namespace) -> SqliteResultCache:
    """The persistent cache the ``cache`` subcommands operate on."""
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        raise ConfigurationError(
            "the cache subcommand needs a persistent cache: pass --cache-dir "
            "or set REPRO_CACHE_DIR"
        )
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
    trace_dir = args.trace_out
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    return trace_dir


def _require_trace_dir(args: argparse.Namespace) -> str:
    """The trace directory a ``telemetry`` inspection subcommand reads."""
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    if trace_dir is None:
        raise ConfigurationError(
            "the telemetry subcommand needs a trace directory: pass "
            "--trace-dir or set REPRO_TRACE_DIR (record one with "
            "`run --trace-out DIR`)"
        )
    return trace_dir


def _registered_method(name: str) -> str:
    """argparse type for ``--methods``: any registered strategy name."""
    if not is_registered(name):
        raise argparse.ArgumentTypeError(
            f"unknown strategy {name!r}; run `python -m repro.cli strategies` "
            f"to list registered strategies ({', '.join(available_strategies())})"
        )
    return name.strip().lower()


def _registered_discovery(name: str) -> str:
    """argparse type for ``--discover``: any registered discovery method."""
    if not is_discovery_method(name):
        raise argparse.ArgumentTypeError(
            f"unknown discovery method {name!r}; run `python -m repro.cli "
            f"discover --list` to enumerate them "
            f"({', '.join(available_discovery_methods())})"
        )
    return name.strip().lower()


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Slice Tuner: selective data acquisition (SIGMOD 2021 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_quiet(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--quiet",
            action="store_true",
            help="print only essential results (ids, status, final summary)",
        )

    def add_json(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--json",
            action="store_true",
            dest="json_output",
            help="print one machine-readable JSON object instead of tables "
            "(stable schema, see the module docs)",
        )

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset",
            default="fashion_like",
            choices=available_tasks(),
            help="synthetic dataset to use",
        )
        sub.add_argument(
            "--scenario",
            default="basic",
            choices=list_scenarios(),
            help="initial-size scenario",
        )
        sub.add_argument("--initial-size", type=int, default=150, help="base initial size per slice")
        sub.add_argument("--validation-size", type=int, default=150, help="validation examples per slice")
        sub.add_argument("--epochs", type=int, default=30, help="training epochs per model fit")
        sub.add_argument("--curve-points", type=int, default=5, help="subset sizes measured per learning curve")
        sub.add_argument("--seed", type=int, default=0, help="base random seed")
        add_quiet(sub)

    def add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            default=None,
            dest="cache_dir",
            help="directory holding the persistent shared result/curve cache "
            "(sqlite, shared across processes and restarts); defaults to "
            "the REPRO_CACHE_DIR environment variable, else in-memory",
        )

    def add_trace_out(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-out",
            default=None,
            dest="trace_out",
            metavar="DIR",
            help="record telemetry: stream spans to DIR/spans.jsonl and "
            "write the metrics snapshot to DIR/metrics.json on exit "
            "(defaults to the REPRO_TRACE_DIR environment variable, else "
            "tracing stays off; results are identical either way)",
        )

    def add_discovery(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--discover",
            default=None,
            type=_registered_discovery,
            metavar="METHOD",
            help="re-run this registered slice-discovery method mid-run and "
            "swap onto the discovered slices (see the discover subcommand)",
        )
        sub.add_argument(
            "--reslice-every",
            type=int,
            default=2,
            help="iteration cadence for re-running discovery "
            "(only with --discover; default: 2)",
        )

    curves = subparsers.add_parser("curves", help="estimate per-slice learning curves")
    add_common(curves)

    discover = subparsers.add_parser(
        "discover",
        help="run a slice-discovery method once and print the partition",
    )
    add_common(discover)
    discover.add_argument(
        "--method",
        default="kmeans",
        type=_registered_discovery,
        metavar="METHOD",
        help="registered discovery method to fit (default: kmeans)",
    )
    discover.add_argument(
        "--list",
        action="store_true",
        dest="list_methods",
        help="list the registered discovery methods and exit",
    )
    add_json(discover)

    plan = subparsers.add_parser("plan", help="print the One-shot acquisition plan for a budget")
    add_common(plan)
    plan.add_argument("--budget", type=float, default=1000.0, help="acquisition budget B")
    plan.add_argument("--lam", type=float, default=1.0, help="loss/unfairness trade-off weight")

    run = subparsers.add_parser(
        "run",
        help="run one strategy end to end and print the fulfillment log",
    )
    add_common(run)
    run.add_argument("--budget", type=float, default=1000.0, help="acquisition budget B")
    run.add_argument("--lam", type=float, default=1.0, help="loss/unfairness trade-off weight")
    run.add_argument(
        "--method",
        default="moderate",
        type=_registered_method,
        metavar="STRATEGY",
        help="registered strategy name to run (see the strategies subcommand)",
    )
    run.add_argument(
        "--source",
        default=None,
        choices=SOURCE_KINDS,
        help="acquisition setup to route requests across (defaults to the "
        "scenario's own source kind)",
    )
    run.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="routing rounds per acquisition request (re-ask throttled or "
        "partially-delivering providers up to this many times per batch)",
    )
    add_discovery(run)
    run.add_argument(
        "--evaluate",
        action="store_true",
        help="also train and evaluate the model before and after acquisition",
    )
    run.add_argument(
        "--resume",
        metavar="CAMPAIGN_ID",
        default=None,
        help="instead of a fresh run, resume the stored campaign from its "
        "latest snapshot (shorthand for `campaign resume CAMPAIGN_ID`)",
    )
    run.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"campaign store used by --resume (default: {DEFAULT_STORE})",
    )
    run.add_argument(
        "--executor",
        default="serial",
        choices=available_executors(),
        help="execution backend for the trainings (results are identical "
        "for every backend)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor process (default: CPU count)",
    )
    add_cache_dir(run)
    add_trace_out(run)
    add_json(run)

    compare = subparsers.add_parser("compare", help="compare acquisition methods over trials")
    add_common(compare)
    compare.add_argument("--budget", type=float, default=1000.0, help="acquisition budget B")
    compare.add_argument("--lam", type=float, default=1.0, help="loss/unfairness trade-off weight")
    compare.add_argument(
        "--methods",
        nargs="+",
        default=["uniform", "water_filling", "moderate"],
        type=_registered_method,
        metavar="STRATEGY",
        help="registered strategy names to compare (see the strategies subcommand)",
    )
    compare.add_argument("--trials", type=int, default=2, help="independently seeded repetitions")
    compare.add_argument(
        "--show-allocations",
        action="store_true",
        help="also print the mean per-slice acquisitions (Table 3 style)",
    )
    compare.add_argument(
        "--executor",
        default="serial",
        choices=available_executors(),
        help="execution backend for the (method, trial) grid; results are "
        "identical for every backend",
    )
    compare.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor process (default: CPU count)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="durable campaign runs: start, resume, list, show",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_store(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help=f"SQLite campaign store path (default: {DEFAULT_STORE})",
        )
        add_cache_dir(sub)
        add_quiet(sub)

    c_start = campaign_sub.add_parser(
        "start",
        help="start a new campaign (or the builtin --suite), persisting "
        "every iteration",
    )
    add_store(c_start)
    add_trace_out(c_start)
    c_start.add_argument("--name", default=None, help="campaign name (required unless --suite)")
    c_start.add_argument("--dataset", default="adult_like", choices=available_tasks())
    c_start.add_argument("--scenario", default="basic", choices=list_scenarios())
    c_start.add_argument(
        "--source",
        default=None,
        choices=SOURCE_KINDS,
        help="acquisition setup (defaults to the scenario's own source kind)",
    )
    c_start.add_argument("--method", default="moderate", type=_registered_method, metavar="STRATEGY")
    add_discovery(c_start)
    c_start.add_argument("--budget", type=float, default=500.0)
    c_start.add_argument("--lam", type=float, default=1.0)
    c_start.add_argument("--seed", type=int, default=0)
    c_start.add_argument("--initial-size", type=int, default=60, help="base initial size per slice")
    c_start.add_argument("--validation-size", type=int, default=60)
    c_start.add_argument("--epochs", type=int, default=10)
    c_start.add_argument("--curve-points", type=int, default=3)
    c_start.add_argument("--priority", type=int, default=0, help="scheduler lane (higher runs first)")
    c_start.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="snapshot cadence in iterations",
    )
    c_start.add_argument(
        "--evaluate",
        action="store_true",
        help="attach before/after evaluation reports to the result",
    )
    c_start.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="pause (checkpointed) after this many iterations instead of "
        "running to completion",
    )
    c_start.add_argument(
        "--suite",
        action="store_true",
        help="run the builtin campaign_suite: 3 heterogeneous campaigns "
        "multiplexed over one shared engine executor",
    )

    c_resume = campaign_sub.add_parser(
        "resume", help="resume stored campaigns after a pause or crash"
    )
    add_store(c_resume)
    add_trace_out(c_resume)
    c_resume.add_argument(
        "campaign_id",
        nargs="?",
        default=None,
        help="campaign id to resume (omit with --all)",
    )
    c_resume.add_argument(
        "--all",
        action="store_true",
        dest="resume_all",
        help="resume every unfinished campaign in the store, multiplexed",
    )
    add_json(c_resume)

    c_list = campaign_sub.add_parser("list", help="list every stored campaign")
    add_store(c_list)
    add_json(c_list)

    c_show = campaign_sub.add_parser(
        "show", help="replay one campaign's event log into a progress report"
    )
    add_store(c_show)
    add_json(c_show)
    c_show.add_argument("campaign_id", help="campaign id to show")

    serve = subparsers.add_parser(
        "serve",
        help="run the tuner service daemon (HTTP campaign API + SSE streams)",
    )
    serve.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"SQLite campaign store path (default: {DEFAULT_STORE})",
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port; 0 picks a free one (default: {DEFAULT_PORT})",
    )
    serve.add_argument(
        "--resume-all",
        action="store_true",
        dest="resume_all",
        help="re-activate every unfinished stored campaign on startup",
    )
    add_cache_dir(serve)
    add_trace_out(serve)
    add_quiet(serve)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain the persistent shared result/curve cache",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="tiered hit/miss/size statistics of the shared cache"
    )
    add_cache_dir(cache_stats)
    add_quiet(cache_stats)
    add_json(cache_stats)
    cache_clear = cache_sub.add_parser(
        "clear", help="drop every cached result and curve (keeps statistics)"
    )
    add_cache_dir(cache_clear)
    add_quiet(cache_clear)
    add_json(cache_clear)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict least-recently-accessed entries until the cache fits",
    )
    add_cache_dir(cache_gc)
    add_quiet(cache_gc)
    add_json(cache_gc)
    cache_gc.add_argument(
        "--max-mb",
        type=float,
        required=True,
        dest="max_mb",
        help="target payload size in megabytes (LRU eviction by last access)",
    )

    telem = subparsers.add_parser(
        "telemetry",
        help="inspect a recorded trace directory: spans, metrics, summary",
    )
    telemetry_sub = telem.add_subparsers(dest="telemetry_command", required=True)

    def add_trace_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-dir",
            default=None,
            dest="trace_dir",
            metavar="DIR",
            help="trace directory to read (defaults to the REPRO_TRACE_DIR "
            "environment variable)",
        )
        add_quiet(sub)
        add_json(sub)

    t_spans = telemetry_sub.add_parser(
        "spans", help="the recorded span log (newest last)"
    )
    add_trace_dir(t_spans)
    t_spans.add_argument(
        "--name",
        default=None,
        dest="span_name",
        help="only spans with this name (e.g. session.iteration)",
    )
    t_spans.add_argument(
        "--limit",
        type=int,
        default=0,
        help="print only the newest N spans (0 = all)",
    )
    t_metrics = telemetry_sub.add_parser(
        "metrics", help="the merged counter/gauge/histogram snapshot"
    )
    add_trace_dir(t_metrics)
    t_summary = telemetry_sub.add_parser(
        "summary", help="per-span-name timing rollup (count/mean/max/errors)"
    )
    add_trace_dir(t_summary)

    report = subparsers.add_parser(
        "report",
        help="analytics reports: SQL views over the campaign event log",
    )
    report.add_argument(
        "report_kind",
        choices=(
            "summary", "slices", "fulfillment", "fairness", "cache",
            "telemetry", "alerts",
        ),
        help="which report to render (each is one or two analytics views)",
    )
    add_store(report)
    report.add_argument(
        "--campaign",
        default=None,
        dest="campaign_id",
        help="restrict the report to one campaign id (not valid for fairness)",
    )
    report.add_argument(
        "--analytics",
        default=None,
        dest="analytics_path",
        help="analytics database path (default: <store>.analytics)",
    )
    report.add_argument(
        "--rebuild",
        action="store_true",
        help="rebuild the analytics mirror from scratch instead of the "
        "incremental cursor refresh (the two are byte-identical; this "
        "exists to prove it and to recover a corrupted mirror)",
    )
    report.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every SQL view row-for-row against the pure-Python "
        "reference before reporting (exit 2 on any mismatch)",
    )
    add_json(report)

    remote = subparsers.add_parser(
        "remote",
        help="drive a running tuner service daemon over HTTP",
    )
    remote_sub = remote.add_subparsers(dest="remote_command", required=True)

    def add_url(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=DEFAULT_URL,
            help=f"daemon base URL (default: {DEFAULT_URL})",
        )
        sub.add_argument(
            "--timeout",
            type=float,
            default=300.0,
            help="overall wait/request timeout in seconds",
        )
        add_quiet(sub)
        add_json(sub)

    r_submit = remote_sub.add_parser(
        "submit", help="submit a campaign spec to the daemon"
    )
    add_url(r_submit)
    r_submit.add_argument("--name", required=True, help="campaign name")
    r_submit.add_argument("--dataset", default="adult_like", choices=available_tasks())
    r_submit.add_argument("--scenario", default="basic", choices=list_scenarios())
    r_submit.add_argument("--source", default=None, choices=SOURCE_KINDS)
    r_submit.add_argument(
        "--method", default="moderate", type=_registered_method, metavar="STRATEGY"
    )
    add_discovery(r_submit)
    r_submit.add_argument("--budget", type=float, default=500.0)
    r_submit.add_argument("--lam", type=float, default=1.0)
    r_submit.add_argument("--seed", type=int, default=0)
    r_submit.add_argument("--initial-size", type=int, default=60)
    r_submit.add_argument("--validation-size", type=int, default=60)
    r_submit.add_argument("--epochs", type=int, default=10)
    r_submit.add_argument("--curve-points", type=int, default=3)
    r_submit.add_argument("--priority", type=int, default=0)
    r_submit.add_argument("--checkpoint-every", type=int, default=1)
    r_submit.add_argument("--evaluate", action="store_true")
    r_submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the campaign completes and print its summary",
    )

    r_list = remote_sub.add_parser("list", help="list the daemon's campaigns")
    add_url(r_list)

    r_show = remote_sub.add_parser(
        "show", help="one campaign's progress plus the daemon's health table"
    )
    add_url(r_show)
    r_show.add_argument("campaign_id")

    r_tail = remote_sub.add_parser(
        "tail", help="stream a campaign's events live (SSE)"
    )
    add_url(r_tail)
    r_tail.add_argument("campaign_id")
    r_tail.add_argument(
        "--after",
        type=int,
        default=0,
        help="resume cursor: only stream events with seq > AFTER",
    )
    r_tail.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="retry dropped connections this many times (resuming from "
        "the cursor)",
    )

    r_result = remote_sub.add_parser(
        "result", help="fetch a completed campaign's TuningResult"
    )
    add_url(r_result)
    r_result.add_argument("campaign_id")

    r_wait = remote_sub.add_parser(
        "wait", help="block until a campaign completes"
    )
    add_url(r_wait)
    r_wait.add_argument("campaign_id")

    r_pause = remote_sub.add_parser(
        "pause", help="checkpoint + pause a running campaign"
    )
    add_url(r_pause)
    r_pause.add_argument("campaign_id")

    r_resume = remote_sub.add_parser(
        "resume", help="re-activate paused/stored campaigns"
    )
    add_url(r_resume)
    r_resume.add_argument("campaign_id", nargs="?", default=None)
    r_resume.add_argument(
        "--all", action="store_true", dest="resume_all",
        help="re-activate every unfinished stored campaign",
    )

    r_stats = remote_sub.add_parser("stats", help="the daemon's health table")
    add_url(r_stats)

    monitor = subparsers.add_parser(
        "monitor",
        help="health & alerting: SLO rules, alert history, live dashboard",
    )
    monitor_sub = monitor.add_subparsers(dest="monitor_command", required=True)

    m_rules = monitor_sub.add_parser(
        "rules", help="list every registered alert rule and its thresholds"
    )
    add_quiet(m_rules)
    add_json(m_rules)

    m_alerts = monitor_sub.add_parser(
        "alerts", help="the durable alert history replayed from a store"
    )
    add_store(m_alerts)
    add_json(m_alerts)
    m_alerts.add_argument(
        "--campaign",
        default=None,
        dest="campaign_id",
        help="restrict to one campaign id",
    )

    m_status = monitor_sub.add_parser(
        "status",
        help="per-component health verdict folded from a store's alerts",
    )
    add_store(m_status)
    add_json(m_status)

    m_watch = monitor_sub.add_parser(
        "watch",
        help="live dashboard: poll a daemon's /health/deep and /alerts",
    )
    add_url(m_watch)
    m_watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2.0)",
    )
    m_watch.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = run until interrupted)",
    )
    m_watch.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit",
    )

    m_bench = monitor_sub.add_parser(
        "bench",
        help="benchmark-regression watchdog: fresh results vs committed "
        "BENCH_*.json references",
    )
    m_bench.add_argument(
        "--fresh",
        required=True,
        help="JSON file of freshly measured benchmark results "
        "({benchmark: {metric: value}})",
    )
    m_bench.add_argument(
        "--benchmark",
        default=None,
        help="restrict the comparison to one benchmark name",
    )
    m_bench.add_argument(
        "--reference-dir",
        default="benchmarks",
        help="directory holding the committed BENCH_*.json references "
        "(default: benchmarks)",
    )
    add_quiet(m_bench)
    add_json(m_bench)

    strategies = subparsers.add_parser(
        "strategies", help="list every registered acquisition strategy"
    )
    add_quiet(strategies)
    add_json(strategies)
    sources = subparsers.add_parser(
        "sources", help="list every registered data-source provider"
    )
    add_quiet(sources)
    add_json(sources)
    return parser


def _experiment_config(
    args: argparse.Namespace,
    methods: tuple[str, ...],
    budget: float,
    lam: float,
    trials: int,
    extra: dict | None = None,
) -> ExperimentConfig:
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


def run_discover(args: argparse.Namespace) -> str:
    """The ``discover`` subcommand: fit one discovery method, print the partition."""
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
    from repro.engine.factories import describe_factory
    from repro.engine.job import TrainingJob, stable_seed

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

    if args.json_output:
        return _json_output(
            "repro.discover/1",
            {
                "config": {
                    "dataset": args.dataset,
                    "scenario": args.scenario,
                    "method": args.method,
                    "seed": args.seed,
                },
                "fingerprint": method.fingerprint(),
                "slices": [
                    {
                        "name": name,
                        "train": len(discovered[name].train),
                        "validation": len(discovered[name].validation),
                        "cost": discovered[name].cost,
                    }
                    for name in discovered.names
                ],
            },
        )
    if args.quiet:
        return "\n".join(
            f"{name} {len(discovered[name].train)}" for name in discovered.names
        ) + f"\nfingerprint {method.fingerprint()}"
    rows = [
        [
            name,
            len(discovered[name].train),
            len(discovered[name].validation),
            f"{discovered[name].cost:.2f}",
        ]
        for name in discovered.names
    ]
    output = format_table(
        headers=["slice", "train", "validation", "cost"],
        rows=rows,
        title=(
            f"Discovered partition — {args.method} on {args.dataset} "
            f"({args.scenario} scenario, {len(discovered.names)} slices)"
        ),
    )
    output += f"\n\nfingerprint: {method.fingerprint()}"
    return output


def run_run(args: argparse.Namespace) -> str:
    """The ``run`` subcommand: one strategy end to end + the fulfillment log."""
    if args.resume is not None:
        return _resume_campaigns(args, [args.resume])
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
    sliced, sources = prepare_named_instance(config, seed=args.seed)
    if args.workers is not None and args.executor != "process":
        raise ConfigurationError("--workers only applies to --executor process")
    executor_kwargs = (
        {"max_workers": args.workers} if args.executor == "process" else {}
    )
    result_cache = _build_result_cache(args)
    try:
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
                    reslice_every=reslice_every if discover is not None else 0,
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
    finally:
        result_cache.close()

    if args.json_output:
        return _json_output(
            "repro.run/1",
            {
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
                    "reslice_every": reslice_every if discover is not None else 0,
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
                    name: {
                        "requests": stats.requests,
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "evictions": stats.evictions,
                    }
                    for name, stats in cache_stats.items()
                },
            },
        )
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


def run_compare(args: argparse.Namespace) -> str:
    """The ``compare`` subcommand: Table-2/6-style method comparison."""
    config = _experiment_config(
        args,
        methods=tuple(args.methods),
        budget=args.budget,
        lam=args.lam,
        trials=args.trials,
    )
    if args.workers is not None and args.executor != "process":
        raise ConfigurationError("--workers only applies to --executor process")
    executor_kwargs = (
        {"max_workers": args.workers} if args.executor == "process" else {}
    )
    with get_executor(args.executor, **executor_kwargs) as executor:
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
    is exactly what an external ``kill -9`` races against.
    """
    kill_after = int(os.environ.get("REPRO_CAMPAIGN_KILL_AFTER", "0") or 0)
    if kill_after <= 0:
        return None
    signame = os.environ.get("REPRO_CAMPAIGN_KILL_SIGNAL", "KILL").upper()
    signum = getattr(signal, f"SIG{signame}")
    seen = {"n": 0}

    def hook(*_args: object) -> None:
        seen["n"] += 1
        if seen["n"] >= kill_after:
            os.kill(os.getpid(), signum)

    return hook


def _progress_printer(quiet: bool):
    def on_progress(tick) -> None:
        if quiet:
            return
        state = "done" if tick.done else f"iteration {tick.iteration}"
        print(
            f"[{tick.name}] {state} — spent {tick.spent:.0f}/{tick.budget:.0f} "
            f"(lane {tick.priority})"
        )

    return on_progress


def _combined_progress(quiet: bool):
    """Progress printer plus the optional deterministic-kill testing hook."""
    printer = _progress_printer(quiet)
    kill_hook = _kill_after_hook()

    def on_progress(tick) -> None:
        printer(tick)
        if kill_hook is not None:
            kill_hook(tick)

    return on_progress


def _suite_summary(results, executor, quiet: bool) -> str:
    """Render ``[(display name, TuningResult), ...]`` plus the shared cache."""
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
    with SqliteStore(args.store) as store:
        if args.suite:
            result_cache = _build_result_cache(args)
            try:
                executor = SerialExecutor(cache=result_cache)
                results = campaign_suite(
                    store=store,
                    executor=executor,
                    seed=args.seed,
                    on_progress=_combined_progress(args.quiet),
                )
                return _suite_summary(list(results.items()), executor, args.quiet)
            finally:
                result_cache.close()
        if not args.name:
            raise ConfigurationError(
                "campaign start needs --name (or --suite for the builtin workload)"
            )
        spec = CampaignSpec(
            name=args.name,
            dataset=args.dataset,
            scenario=args.scenario,
            source=args.source,
            method=args.method,
            budget=args.budget,
            lam=args.lam,
            seed=args.seed,
            base_size=args.initial_size,
            validation_size=args.validation_size,
            epochs=args.epochs,
            curve_points=args.curve_points,
            priority=args.priority,
            checkpoint_every=args.checkpoint_every,
            evaluate=args.evaluate,
            discover=args.discover,
            reslice_every=args.reslice_every if args.discover is not None else 0,
        )
        result_cache = _build_result_cache(args)
        try:
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
            kill_hook = _kill_after_hook()
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
        finally:
            result_cache.close()


def _campaign_result_text(campaign: Campaign, result, quiet: bool) -> str:
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


def _resume_campaigns(args: argparse.Namespace, campaign_ids: list[str]) -> str:
    with SqliteStore(args.store) as store:
        result_cache = _build_result_cache(args)
        try:
            scheduler = CampaignScheduler(
                store=store,
                result_cache=result_cache,
                on_progress=_combined_progress(args.quiet),
            )
            for campaign_id in campaign_ids:
                scheduler.add_existing(campaign_id)
            by_id = scheduler.run()
            if getattr(args, "json_output", False):
                return _json_output(
                    "repro.campaign.resume/1",
                    {
                        "store": args.store,
                        "results": {
                            campaign_id: result.to_dict()
                            for campaign_id, result in by_id.items()
                        },
                    },
                )
            # Display names can collide across campaigns; campaign ids
            # cannot, so every resumed campaign gets its own summary line.
            results = [
                (campaign.spec.name, by_id[campaign.campaign_id])
                for campaign in scheduler.campaigns
            ]
            return _suite_summary(results, scheduler.executor, args.quiet)
        finally:
            result_cache.close()


def run_campaign_resume(args: argparse.Namespace) -> str:
    """``campaign resume``: continue one campaign (or every unfinished one)."""
    if args.resume_all and args.campaign_id:
        raise ConfigurationError("pass either a campaign id or --all, not both")
    if args.resume_all:
        with SqliteStore(args.store) as store:
            pending = [
                record.campaign_id
                for record in store.list_campaigns()
                if record.status in RESUMABLE
            ]
        if not pending:
            return "nothing to resume: every stored campaign is completed"
        return _resume_campaigns(args, pending)
    if not args.campaign_id:
        raise ConfigurationError("campaign resume needs a campaign id (or --all)")
    return _resume_campaigns(args, [args.campaign_id])


def _campaigns_table(campaigns: list[dict], quiet: bool, title: str) -> str:
    """``campaign list`` / ``remote list`` text: one row per summary dict."""
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
        title=title,
    )


def _campaign_header(summary: dict, spec: dict, progress: bool) -> str:
    """``campaign show`` / ``remote show`` header: identity, status, spec."""
    lines = [
        f"campaign {summary['campaign_id']} ({summary['name']})",
        f"status: {summary['status']} — lane {summary['priority']}, "
        f"{summary['generations']} generation(s), "
        f"{summary['fulfillments']} fulfillment(s)",
    ]
    if progress:
        lines.append(
            f"progress: {summary['iterations']} iteration(s), spent "
            f"{summary['spent']:.2f}/{summary['budget']:.0f}"
        )
    lines.append("spec:")
    lines.extend(f"  {key} = {value}" for key, value in sorted(spec.items()))
    return "\n".join(lines) + "\n\n"


def _show_quiet(summary: dict) -> str:
    """One campaign as the quiet line ``campaign show`` / ``remote show`` print."""
    return (
        f"{summary['campaign_id']} {summary['status']} "
        f"iterations={summary['iterations']} spent={summary['spent']:.2f}"
    )


def run_campaign_list(args: argparse.Namespace) -> str:
    """``campaign list``: one row per stored campaign."""
    with SqliteStore(args.store) as store:
        # campaign_summary is the same fold the daemon's ``GET /campaigns``
        # uses, so local and remote tooling share one parser.
        campaigns = [
            campaign_summary(store, record.campaign_id)
            for record in store.list_campaigns()
        ]
    if args.json_output:
        return _json_output(
            "repro.campaign.list/1", {"store": args.store, "campaigns": campaigns}
        )
    if not campaigns:
        return f"no campaigns in {args.store}"
    return _campaigns_table(campaigns, args.quiet, f"Campaigns in {args.store}")


def run_campaign_show(args: argparse.Namespace) -> str:
    """``campaign show``: replay one campaign's event log."""
    with SqliteStore(args.store) as store:
        # Same fold as the daemon's ``GET /campaigns/<id>`` payload.
        summary = campaign_summary(store, args.campaign_id)
        spec = dict(store.get_campaign(args.campaign_id).spec)
        events = replay_events(store.events(args.campaign_id))
    if args.json_output:
        summary["spec"] = spec
        return _json_output(
            "repro.campaign.show/1",
            {
                "store": args.store,
                "campaign": summary,
                "events": [event.to_dict() for event in events],
            },
        )
    if args.quiet:
        return _show_quiet(summary)
    iteration_rows = [
        [
            event.iteration,
            event.generation,
            sum(event.payload.get("acquired", {}).values()),
            f"{event.payload.get('spent', 0.0):.1f}",
            f"{event.payload.get('imbalance_after', 0.0):.2f}",
        ]
        for event in events
        if event.kind == "iteration"
    ]
    return _campaign_header(summary, spec, progress=False) + format_table(
        headers=["iteration", "generation", "acquired", "spent", "imbalance"],
        rows=iteration_rows,
        title=(
            f"Replayed history — {summary['iterations']} iteration(s), "
            f"spent {summary['spent']:.2f}/{summary['budget']:.0f}"
        ),
    )


def run_campaign(args: argparse.Namespace) -> str:
    """Dispatch for the ``campaign`` family of subcommands."""
    if args.campaign_command == "start":
        return run_campaign_start(args)
    if args.campaign_command == "resume":
        return run_campaign_resume(args)
    if args.campaign_command == "list":
        return run_campaign_list(args)
    if args.campaign_command == "show":
        return run_campaign_show(args)
    raise ConfigurationError(  # pragma: no cover - argparse enforces choices
        f"unknown campaign command {args.campaign_command!r}"
    )


# -- the persistent cache family ---------------------------------------------------


def _cache_stats_payload(cache: SqliteResultCache) -> dict:
    """The tier/size/counter snapshot both ``cache stats`` renderings share."""
    tiers = cache.tier_stats()
    entries = cache.entry_stats()
    totals = cache.stats
    payload_tiers = {}
    for name, stats in tiers.items():
        tier = {
            "requests": stats.requests,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": round(stats.hit_rate, 4),
        }
        if name in entries:
            tier["entries"] = entries[name]["entries"]
            tier["size_bytes"] = entries[name]["size_bytes"]
        payload_tiers[name] = tier
    return {
        "path": cache.path,
        "tiers": payload_tiers,
        "totals": {
            "requests": totals.requests,
            "hits": totals.hits,
            "misses": totals.misses,
            # ``cache.stats`` aggregates the result path only (memory +
            # results tiers); ``gc()`` also evicts curves, so the totals row
            # sums evictions across every tier — otherwise curve evictions
            # would be invisible outside the per-tier breakdown.
            "evictions": sum(stats.evictions for stats in tiers.values()),
            "hit_rate": round(totals.hit_rate, 4),
        },
    }


def run_cache(args: argparse.Namespace) -> str:
    """Dispatch for the ``cache`` family: stats, clear, gc."""
    cache = _require_disk_cache(args)
    try:
        if args.cache_command == "stats":
            payload = _cache_stats_payload(cache)
            if args.json_output:
                return _json_output("repro.cache/1", payload)
            totals = payload["totals"]
            if args.quiet:
                return (
                    f"requests={totals['requests']} hits={totals['hits']} "
                    f"misses={totals['misses']}"
                )
            rows = []
            for name, tier in payload["tiers"].items():
                rows.append(
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
                )
            rows.append(
                [
                    "total",
                    sum(t.get("entries", 0) for t in payload["tiers"].values()),
                    sum(t.get("size_bytes", 0) for t in payload["tiers"].values()),
                    totals["requests"],
                    totals["hits"],
                    totals["misses"],
                    f"{totals['hit_rate']:.0%}",
                    totals["evictions"],
                ]
            )
            return format_table(
                headers=[
                    "tier", "entries", "bytes", "lookups", "hits", "misses",
                    "hit rate", "evictions",
                ],
                rows=rows,
                title=f"Persistent cache — {cache.path}",
            )
        if args.cache_command == "clear":
            removed = cache.clear_all()
            if args.json_output:
                return _json_output(
                    "repro.cache.clear/1", {"path": cache.path, **removed}
                )
            return (
                f"cleared {cache.path}: {removed['removed_results']} result(s), "
                f"{removed['removed_curves']} curve(s), "
                f"{removed['freed_bytes']} byte(s) freed"
            )
        if args.cache_command == "gc":
            report = cache.gc(args.max_mb)
            if args.json_output:
                return _json_output(
                    "repro.cache.gc/1",
                    {"path": cache.path, "max_mb": args.max_mb, **report},
                )
            return (
                f"gc {cache.path} to {args.max_mb:g} MB: evicted "
                f"{report['removed_results']} result(s), "
                f"{report['removed_curves']} curve(s), freed "
                f"{report['freed_bytes']} byte(s) "
                f"({report['remaining_bytes']} remaining)"
            )
        raise ConfigurationError(  # pragma: no cover - argparse enforces choices
            f"unknown cache command {args.cache_command!r}"
        )
    finally:
        cache.close()


# -- the telemetry family ----------------------------------------------------------


def run_telemetry(args: argparse.Namespace) -> str:
    """Dispatch for the ``telemetry`` family: spans, metrics, summary.

    All three read a trace directory previously recorded with
    ``--trace-out`` (or ``REPRO_TRACE_DIR``); none of them installs a
    tracer, so inspection never mutates the trace being inspected.  JSON
    payloads share the ``repro.telemetry/1`` schema tag.
    """
    trace_dir = _require_trace_dir(args)
    if args.telemetry_command == "spans":
        spans = telemetry.read_spans(trace_dir)
        if args.span_name is not None:
            spans = [s for s in spans if s.get("name") == args.span_name]
        if args.limit > 0:
            spans = spans[-args.limit :]
        if args.json_output:
            return _json_output(
                "repro.telemetry/1",
                {
                    "trace_dir": trace_dir,
                    "kind": "spans",
                    "span_count": len(spans),
                    "spans": spans,
                },
            )
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
    if args.telemetry_command == "metrics":
        snapshot = telemetry.read_metrics(trace_dir)
        histograms = snapshot.get("histograms", {})
        quantiles = {
            name: telemetry.histogram_quantiles(data)
            for name, data in sorted(histograms.items())
        }
        if args.json_output:
            return _json_output(
                "repro.telemetry/1",
                {
                    "trace_dir": trace_dir,
                    "kind": "metrics",
                    "metrics": snapshot,
                    "quantiles": quantiles,
                },
            )
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
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
    if args.telemetry_command == "summary":
        total, summary = telemetry.summarize_spans(telemetry.read_spans(trace_dir))
        metrics = telemetry.read_metrics(trace_dir)
        counters = metrics.get("counters", {})
        quantiles = {
            name: telemetry.histogram_quantiles(data)
            for name, data in sorted(metrics.get("histograms", {}).items())
        }
        if args.json_output:
            return _json_output(
                "repro.telemetry/1",
                {
                    "trace_dir": trace_dir,
                    "kind": "summary",
                    "span_count": total,
                    "spans": summary,
                    "counters": counters,
                    "quantiles": quantiles,
                },
            )
        if args.quiet:
            return (
                f"{total} span(s) across {len(summary)} name(s) in {trace_dir}"
            )
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
            [
                name,
                estimates.get("p50"),
                estimates.get("p95"),
                estimates.get("p99"),
            ]
            for name, estimates in quantiles.items()
            if estimates.get("p50") is not None
        ]
        if quantile_rows:
            out += "\n\n" + format_table(
                headers=["histogram", "p50 s", "p95 s", "p99 s"],
                rows=[
                    [name, f"{p50:.6f}", f"{p95:.6f}", f"{p99:.6f}"]
                    for name, p50, p95, p99 in quantile_rows
                ],
                title="Latency quantiles (bucket-interpolated)",
            )
        return out
    raise ConfigurationError(  # pragma: no cover - argparse enforces choices
        f"unknown telemetry command {args.telemetry_command!r}"
    )


# -- the analytics report family ---------------------------------------------------


def run_report(args: argparse.Namespace) -> str:
    """``report``: render one analytics report over a campaign store.

    The payload comes from the same builder the daemon's report endpoints
    use (:meth:`Analytics.report <repro.analytics.refresh.Analytics>`), so
    ``report <kind> --json`` and ``GET /reports/summary?kind=<kind>`` emit
    equal JSON for the same store.  ``--verify`` first compares every SQL
    view row-for-row against the pure-Python reference implementation and
    exits 2 on the first mismatch.
    """
    if not os.path.exists(args.store):
        raise ConfigurationError(
            f"no campaign store at {args.store!r}; start one with "
            f"`campaign start` (or pass --store)"
        )
    with SqliteStore(args.store) as store:
        with Analytics(store, path=args.analytics_path) as analytics:
            refreshed = analytics.rebuild() if args.rebuild else analytics.refresh()
            verified = assert_consistent(store, analytics) if args.verify else None
            payload = analytics.report(args.report_kind, args.campaign_id)
            if verified is not None:
                payload["verified"] = verified
            if args.json_output:
                return _json_output(payload["schema"], payload)
            if args.quiet:
                rows = sum(
                    len(section["rows"]) for section in payload["sections"].values()
                )
                line = (
                    f"{args.report_kind} {rows} row(s) through seq "
                    f"{payload['cursor']}"
                )
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


# -- the health & alerting family --------------------------------------------------


def _monitor_store(args: argparse.Namespace) -> SqliteStore:
    if not os.path.exists(args.store):
        raise ConfigurationError(
            f"no campaign store at {args.store!r}; start one with "
            f"`campaign start` (or pass --store)"
        )
    return SqliteStore(args.store)


def _alert_rows(alerts: list[dict]) -> list[list]:
    return [
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
    ]


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


def _watch_frame(
    url: str, frame: int, verdict: dict, alerts_payload: dict
) -> str:
    out = _health_table(
        verdict,
        title=f"Tuner health — {url} (frame {frame})",
    )
    recent = alerts_payload["alerts"][-8:]
    if recent:
        out += "\n\n" + format_table(
            headers=[
                "campaign", "seq", "iter", "rule", "severity", "state",
                "value", "threshold",
            ],
            rows=_alert_rows(recent),
            title=(
                f"Alert history — newest {len(recent)} of "
                f"{alerts_payload['count']} row(s)"
            ),
        )
    else:
        out += "\n\nno alerts recorded"
    return out


def run_monitor(args: argparse.Namespace) -> str:
    """Dispatch for the ``monitor`` family: SLO rules, alert history,
    per-component health verdicts, the live dashboard, and the
    benchmark-regression watchdog.

    Everything here reads the same durable surfaces the daemon serves —
    ``monitor alerts`` replays the store's ``alert`` events exactly as
    ``GET /alerts`` and the ``alert_history`` analytics view do.
    """
    command = args.monitor_command

    if command == "rules":
        rules = [get_rule(name).to_dict() for name in available_rules()]
        if args.json_output:
            return _json_output(
                "repro.monitor/1",
                {"kind": "rules", "count": len(rules), "rules": rules},
            )
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

    if command == "alerts":
        with _monitor_store(args) as store:
            if args.campaign_id is not None:
                store.get_campaign(args.campaign_id)
            alerts = alert_history(store, args.campaign_id)
        if args.json_output:
            return _json_output(
                "repro.monitor/1",
                {"kind": "alerts", "count": len(alerts), "alerts": alerts},
            )
        if args.quiet:
            fired = sum(1 for row in alerts if row["state"] == "fired")
            return (
                f"{len(alerts)} alert row(s) ({fired} fired) in {args.store}"
            )
        if not alerts:
            return f"no alerts recorded in {args.store}"
        return format_table(
            headers=[
                "campaign", "seq", "iter", "rule", "severity", "state",
                "value", "threshold",
            ],
            rows=_alert_rows(alerts),
            title=f"Alert history — {args.store} ({len(alerts)} row(s))",
        )

    if command == "status":
        with _monitor_store(args) as store:
            verdict = HealthEvaluator().health(store=store)
        if args.json_output:
            return _json_output(
                "repro.monitor/1", {"kind": "status", "health": verdict}
            )
        if args.quiet:
            return f"{verdict['status']} — {args.store}"
        return _health_table(verdict, title=f"Campaign health — {args.store}")

    if command == "watch":
        client = TunerClient(args.url, timeout=args.timeout)
        interval = max(float(args.interval), 0.1)
        deadline = (
            time.monotonic() + args.max_seconds
            if args.max_seconds > 0
            else None
        )
        frame = 0
        output = ""
        try:
            while True:
                verdict = client.health_deep()
                alerts_payload = client.alerts()
                frame += 1
                if args.json_output:
                    output = _json_output(
                        "repro.monitor/1",
                        {
                            "kind": "watch",
                            "frame": frame,
                            "health": verdict,
                            "alerts": alerts_payload,
                        },
                    )
                elif args.quiet:
                    output = (
                        f"frame {frame}: {verdict['status']} — "
                        f"{alerts_payload['count']} alert row(s)"
                    )
                else:
                    output = _watch_frame(
                        args.url, frame, verdict, alerts_payload
                    )
                done = args.once or (
                    deadline is not None and time.monotonic() >= deadline
                )
                if done:
                    return output
                print(output, flush=True)
                time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return output

    if command == "bench":
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
        if args.json_output:
            output = _json_output(
                "repro.monitor/1", {"kind": "bench", **verdict}
            )
        elif args.quiet:
            output = (
                f"{verdict['status']} — {len(verdict['checked'])} "
                f"benchmark(s) checked, {len(verdict['regressions'])} "
                f"regression(s)"
            )
        else:
            lines = [
                f"checked: {', '.join(verdict['checked']) or 'none'}",
            ]
            if verdict["unmatched"]:
                lines.append(
                    "unmatched (no committed reference): "
                    + ", ".join(verdict["unmatched"])
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
            output = "\n".join(lines)
        if verdict["regressions"]:
            # Exit 2 for CI after the report is visible on stdout.
            print(output, flush=True)
            raise ConfigurationError(
                f"{len(verdict['regressions'])} benchmark regression(s) "
                f"against {args.reference_dir}"
            )
        return output

    raise ConfigurationError(  # pragma: no cover - argparse enforces choices
        f"unknown monitor command {command!r}"
    )


# -- the serve daemon and its remote clients ---------------------------------------


def run_serve(args: argparse.Namespace) -> str:
    """``serve``: the tuner service daemon, until SIGTERM/SIGINT drains it.

    The status line printed on startup (and the drain summary on exit) are
    ``--quiet``-compatible: one line each, so supervisors can log them.  A
    graceful drain checkpoints and pauses every unfinished campaign — a
    restarted daemon with ``--resume-all`` continues each one
    byte-identically.
    """
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


def _remote_submit_spec(args: argparse.Namespace) -> dict:
    """The CampaignSpec JSON body a ``remote submit`` invocation describes."""
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


def run_remote(args: argparse.Namespace) -> str:
    """Dispatch for the ``remote`` family: thin clients over TunerClient."""
    client = TunerClient(args.url, timeout=args.timeout)
    command = args.remote_command

    if command == "submit":
        submitted = client.submit(_remote_submit_spec(args))
        campaign_id = submitted["campaign_id"]
        if args.wait:
            client.wait(campaign_id, timeout=args.timeout)
            summary = client.show(campaign_id)
            if args.json_output:
                return _json_output(
                    "repro.remote.submit/1",
                    {"submitted": submitted, "campaign": summary,
                     "result": client.result(campaign_id)},
                )
            return _show_quiet(summary)
        if args.json_output:
            return _json_output("repro.remote.submit/1", {"submitted": submitted})
        return (
            f"{campaign_id}: submitted ({submitted['status']}"
            f"{', reused' if submitted['reused'] else ''})"
        )

    if command == "list":
        campaigns = client.list_campaigns()
        if args.json_output:
            return _json_output(
                "repro.remote.list/1", {"url": args.url, "campaigns": campaigns}
            )
        if not campaigns:
            return f"no campaigns at {args.url}"
        return _campaigns_table(campaigns, args.quiet, f"Campaigns at {args.url}")

    if command == "show":
        summary = client.show(args.campaign_id)
        stats = client.stats()
        if args.json_output:
            return _json_output(
                "repro.remote.show/1", {"campaign": summary, "stats": stats}
            )
        if args.quiet:
            return _show_quiet(summary)
        return _campaign_header(
            summary, summary["spec"], progress=True
        ) + server_stats_table(stats)

    if command == "tail":
        frames = []
        for frame in client.tail(
            args.campaign_id, after=args.after, reconnect=args.reconnect
        ):
            frames.append(frame)
            if args.json_output:
                continue  # collected and printed as one object at the end
            if frame["event"] == "tick":
                if not args.quiet:
                    data = frame["data"]
                    print(
                        f"[tick] {data['name']} iteration {data['iteration']} — "
                        f"spent {data['spent']:.0f}/{data['budget']:.0f}",
                        flush=True,
                    )
                continue
            if frame["event"] == "end":
                continue  # summarized by the return value below
            print(
                f"{frame['id']} {frame['event']} "
                f"{json.dumps(frame['data']['payload'], sort_keys=True)}",
                flush=True,
            )
        end = frames[-1]["data"] if frames and frames[-1]["event"] == "end" else {}
        if args.json_output:
            return _json_output(
                "repro.remote.tail/1",
                {"campaign_id": args.campaign_id, "frames": frames},
            )
        return (
            f"{args.campaign_id} {end.get('status', '?')} "
            f"(last event seq {end.get('last_seq', client.last_event_id)})"
        )

    if command == "result":
        result = client.result(args.campaign_id)
        if args.json_output:
            return _json_output(
                "repro.remote.result/1",
                {"campaign_id": args.campaign_id, "result": result},
            )
        acquired = sum(result.get("total_acquired", {}).values())
        return (
            f"{args.campaign_id}: method={result['method']} "
            f"iterations={len(result.get('iterations', []))} "
            f"spent={result['spent']:.2f} acquired={acquired}"
        )

    if command == "wait":
        summary = client.wait(args.campaign_id, timeout=args.timeout)
        if args.json_output:
            return _json_output("repro.remote.wait/1", {"campaign": summary})
        return _show_quiet(summary)

    if command == "pause":
        outcome = client.pause(args.campaign_id)
        if args.json_output:
            return _json_output("repro.remote.pause/1", outcome)
        state = "paused" if outcome["paused"] else "not pausable (done or idle)"
        return f"{args.campaign_id}: {state}"

    if command == "resume":
        if args.resume_all and args.campaign_id:
            raise ConfigurationError("pass either a campaign id or --all, not both")
        if args.resume_all:
            resumed = client.resume_all()
            if args.json_output:
                return _json_output("repro.remote.resume/1", {"resumed": resumed})
            if not resumed:
                return "nothing to resume: every stored campaign is completed"
            return "\n".join(f"{campaign_id} resumed" for campaign_id in resumed)
        if not args.campaign_id:
            raise ConfigurationError("remote resume needs a campaign id (or --all)")
        outcome = client.resume(args.campaign_id)
        if args.json_output:
            return _json_output("repro.remote.resume/1", {"resumed": [outcome]})
        return f"{args.campaign_id}: {outcome['status']}"

    if command == "stats":
        stats = client.stats()
        if args.json_output:
            return _json_output(
                "repro.remote.stats/1", {"url": args.url, "stats": stats}
            )
        if args.quiet:
            return server_status_line(stats)
        return server_stats_table(stats, title=f"Tuner service health — {args.url}")

    raise ConfigurationError(  # pragma: no cover - argparse enforces choices
        f"unknown remote command {command!r}"
    )


def run_strategies(args: argparse.Namespace) -> str:
    """The ``strategies`` subcommand: list the acquisition-strategy registry."""
    if args.json_output:
        return _json_output(
            "repro.strategies/1",
            {
                "strategies": [
                    {
                        "name": name,
                        "kind": (
                            "iterative"
                            if get_strategy(name).is_iterative
                            else "one-shot"
                        ),
                        "uses_lambda": get_strategy(name).uses_lam,
                        "description": description,
                    }
                    for name, description in strategy_descriptions().items()
                ]
            },
        )
    if args.quiet:
        return "\n".join(available_strategies())
    rows = []
    for name, description in strategy_descriptions().items():
        strategy = get_strategy(name)
        kind = "iterative" if strategy.is_iterative else "one-shot"
        uses_lam = "yes" if strategy.uses_lam else "no"
        rows.append([name, kind, uses_lam, description])
    return format_table(
        headers=["strategy", "kind", "uses lambda", "description"],
        rows=rows,
        title="Registered acquisition strategies",
    )


def run_sources(args: argparse.Namespace) -> str:
    """The ``sources`` subcommand: list the data-source provider registry."""
    descriptions = source_descriptions()
    if args.json_output:
        return _json_output(
            "repro.sources/1",
            {
                "sources": [
                    {"name": name, "description": description}
                    for name, description in descriptions.items()
                ]
            },
        )
    if args.quiet:
        return "\n".join(descriptions)
    rows = [[name, description] for name, description in descriptions.items()]
    return format_table(
        headers=["source", "description"],
        rows=rows,
        title="Registered data-source providers",
    )


_COMMANDS = {
    "curves": run_curves,
    "plan": run_plan,
    "discover": run_discover,
    "run": run_run,
    "compare": run_compare,
    "campaign": run_campaign,
    "cache": run_cache,
    "telemetry": run_telemetry,
    "report": run_report,
    "monitor": run_monitor,
    "serve": run_serve,
    "remote": run_remote,
    "strategies": run_strategies,
    "sources": run_sources,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes are consistent across subcommands: 0 on success, 2 for
    configuration/usage errors (unknown strategy, unknown campaign id,
    invalid flag combinations — the same code argparse uses for parse
    errors).  Unexpected exceptions propagate as tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
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
        output = handler(args)
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
