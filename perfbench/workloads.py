"""The benchmark's four workloads: ``tune``, ``campaigns``, ``serve``, ``cli``.

Each workload class has the same life cycle, driven by ``run.py``:

``setup()``
    Everything the first op needs (the set-up time ``setup_s`` measures).
``measure(seconds)``
    A closed loop of ops for at least ``seconds`` seconds; returns the op
    records and the length of the measured window.
``check()``
    Output checks, run after the measured window; returns
    ``(checks made, [(op index, failure message), ...])``.  A check that
    needs an op of its own (index -1) counts it in ``extra_ops``.
``teardown()``
    Stops every process the workload started and removes its files.

All inputs derive from the ``seed`` handed to the constructor; the program
only ever sees the generated specs and seeds.  Importing this module
imports the program, so the checkout's ``src/`` must be on ``sys.path``
first (``run.py`` puts it there).
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analytics import Analytics
from repro.analytics.views import REPORT_SECTIONS
from repro.campaigns import Campaign, CampaignScheduler, CampaignSpec, InMemoryStore, SqliteStore
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.engine.diskcache import SqliteResultCache, default_cache_path
from repro.engine.executor import SerialExecutor
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import campaign_suite, default_campaign_specs, prepare_named_instance
from repro.serve import TunerClient
from tracer import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One completed (or failed) operation."""

    index: int
    kind: str
    start: float
    duration: float
    ok: bool = True
    error: str = ""
    traced: bool = False
    payload: object = None
    extra: dict = field(default_factory=dict)


def canonical(value) -> str:
    """JSON text that two equal results share, whatever their containers."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True)


def child_env() -> dict:
    """Environment for every subprocess: the checkout's ``src`` and nothing
    inherited that would redirect the program's cache or trace output."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(args, traced: bool, spans_out: Path | None = None) -> list[str]:
    """Argv that runs ``repro.cli`` with ``args``, untraced or traced."""
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans_out), *args]
    return [sys.executable, "-m", "repro.cli", *args]


def start_daemon(store_path: Path, traced: bool, spans_out: Path) -> tuple[subprocess.Popen, TunerClient]:
    """``repro.cli serve`` over ``store_path`` on a free port, ready to serve."""
    argv = ["serve", "--store", str(store_path), "--port", "0", "--quiet"]
    daemon = subprocess.Popen(
        cli_command(argv, traced, spans_out),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=child_env(),
    )
    try:
        line = daemon.stdout.readline()
        match = re.search(r"serving on (\S+)", line)
        if match is None:
            raise RuntimeError(f"daemon did not start: {line!r}")
        client = TunerClient(match.group(1), timeout=60.0)
        client.wait_ready()
    except BaseException:
        stop_daemon(daemon)
        raise
    return daemon, client


def stop_daemon(daemon: subprocess.Popen | None) -> None:
    """SIGTERM (the daemon drains and exits) and wait; kill if it hangs."""
    if daemon is None or daemon.poll() is not None:
        return
    daemon.send_signal(signal.SIGTERM)
    try:
        daemon.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()


def read_spans(spans_out: Path, key: object, op: object = None) -> list[tuple]:
    """The spans a traced child process wrote.  Span ids restart in every
    process, so they are keyed by ``key``; ``op`` (if given) becomes their op id."""
    if not spans_out.exists():
        return []
    spans = []
    for span in json.loads(spans_out.read_text())["spans"]:
        span[0] = (key, span[0])
        span[1] = None if span[1] is None else (key, span[1])
        if op is not None:
            span[2] = op
        spans.append(tuple(span))
    return spans


def closed_loop(seconds: float, min_ops: int, run_op) -> tuple[list[Op], float]:
    """Run ``run_op(index) -> Op`` back to back for ``seconds`` (and at least
    ``min_ops`` ops); a raising op is recorded as failed and the loop goes on."""
    ops: list[Op] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(ops) < min_ops:
        index = len(ops)
        start = time.perf_counter()
        try:
            op = run_op(index)
        except Exception as error:  # noqa: BLE001 - counted in failed_ratio
            op = Op(index, "op", start - begin, 0.0, ok=False, error=repr(error))
        op.start = start - begin
        op.duration = op.duration or time.perf_counter() - start
        ops.append(op)
    return ops, time.perf_counter() - begin


def sqlite_bytes(path: str) -> int:
    """Size of a sqlite database file and its write-ahead log."""
    return sum(os.path.getsize(path + suffix) for suffix in ("", "-wal") if os.path.exists(path + suffix))


def seeds_from(seed: int, count: int, salt: str) -> list[int]:
    """``count`` instance seeds derived from the benchmark seed."""
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 2**31 - 1) for _ in range(count)]


class Workload:
    name = ""
    #: Fewest ops a run makes, whatever ``--seconds`` says.
    min_ops = 1
    #: Ops run by ``check()`` itself (attempted, but outside the window).
    extra_ops = 0

    def __init__(self, seed: int, trace: bool, workdir: Path) -> None:
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.recorder = Recorder()
        self.ops: list[Op] = []

    def setup(self) -> None:
        pass

    def measure(self, seconds: float) -> tuple[list[Op], float]:
        raise NotImplementedError

    def check(self) -> tuple[int, list[tuple[int, str]]]:
        return 0, []

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def facts(self) -> dict:
        """Workload-specific end-to-end figures for the printed table."""
        return {}

    def spans(self) -> list[tuple]:
        return list(self.recorder.spans)

    # Alternating ops in a traced run: op 2k is untraced and op 2k+1 runs the
    # same input traced, so one run yields both op times and the pairs must
    # produce equal results.
    def _input_of(self, index: int) -> tuple[int, bool]:
        if self.trace:
            return index // 2, index % 2 == 1
        return index, False

    def _traced(self, traced: bool, index: int, body):
        if not traced:
            return body()
        self.recorder.install()
        try:
            with self.recorder.span("op", op=index):
                return body()
        finally:
            self.recorder.uninstall()


# -- tune ------------------------------------------------------------------------


class Tune(Workload):
    """Paper-config fashion_like instances tuned with ``moderate``."""

    name = "tune"
    instances = 6

    def setup(self) -> None:
        self.seeds = seeds_from(self.seed, self.instances, "tune")
        self.min_ops = self.instances if not self.trace else 2

    def tune(self, instance_seed: int):
        config = ExperimentConfig(seed=instance_seed)
        sliced, sources = prepare_named_instance(config, instance_seed)
        tuner = SliceTuner(
            sliced=sliced,
            trainer_config=config.training_config(),
            curve_config=config.curve_config(),
            config=SliceTunerConfig(lam=config.lam, min_slice_size=config.min_slice_size),
            random_state=instance_seed + 20_000,
            sources=sources,
            executor=SerialExecutor(),
        )
        return config, tuner.run(config.budget, method="moderate", lam=config.lam, evaluate=True)

    def measure(self, seconds):
        def run_op(index):
            slot, traced = self._input_of(index)
            instance = self.seeds[slot % len(self.seeds)]
            start = time.perf_counter()
            config, result = self._traced(traced, index, lambda: self.tune(instance))
            return Op(
                index, "tune", 0.0, time.perf_counter() - start, traced=traced,
                payload=(instance, config.budget, result),
            )

        self.ops, window = closed_loop(seconds, self.min_ops, run_op)
        return self.ops, window

    def check(self):
        failures = []
        done = [op for op in self.ops if op.ok]
        by_instance: dict[int, str] = {}
        for op in done:
            instance, budget, result = op.payload
            if result.spent > budget + 1e-9:
                failures.append((op.index, f"spent {result.spent} > budget {budget}"))
            text = canonical(result.to_dict())
            if by_instance.setdefault(instance, text) != text:
                failures.append((op.index, f"result differs from an earlier run of instance {instance}"))
        checks = 2 * len(done)
        if done and not self.trace:
            # The traced run of op 0's instance must equal the untraced one.
            instance = done[0].payload[0]
            _, result = self._traced(True, -1, lambda: self.tune(instance))
            self.recorder.spans.clear()
            self.extra_ops = 1
            checks += 1
            if canonical(result.to_dict()) != by_instance[instance]:
                failures.append((-1, f"traced run of instance {instance} differs from untraced"))
        return checks, failures

    def facts(self):
        reports = {}
        for op in self.ops:
            if op.ok:
                instance, _, result = op.payload
                reports[instance] = result.final_report
        if not reports:
            return {}
        return {
            "final_loss": (sum(r.loss for r in reports.values()) / len(reports), "loss", f"mean of {len(reports)} instances"),
            "final_avg_eer": (sum(r.avg_eer for r in reports.values()) / len(reports), "eer", f"mean of {len(reports)} instances"),
        }


# -- campaigns -------------------------------------------------------------------


class Campaigns(Workload):
    """The builtin 3-campaign suite: interrupt, resume from the store, finish,
    then refresh analytics and build every report."""

    name = "campaigns"
    #: Distinct suite seeds a run cycles through.  Suites differ in cost, so
    #: the median needs a wide mix; each distinct seed costs one reference
    #: suite in ``check()``.
    instances = 32
    #: Scheduler steps before the interruption.  The first steps all belong
    #: to the priority-1 ``adult-moderate`` campaign, which is then mid-run.
    #: Interrupting later can catch the one-shot ``faces-uniform`` campaign
    #: between its only iteration and its completion; resumed from there it
    #: runs a second iteration, so its result no longer matches an
    #: uninterrupted suite (see README.md, "Known program issue").
    interrupt_after = 2

    def setup(self) -> None:
        self.kinds = sorted(REPORT_SECTIONS)
        self.seeds = seeds_from(self.seed, self.instances, "campaigns")
        self.min_ops = 2

    def suite(self, suite_seed: int, where: Path) -> dict:
        where.mkdir(parents=True)
        store_path, cache_file = str(where / "store.sqlite"), default_cache_path(str(where / "cache"))
        store, cache = SqliteStore(store_path), SqliteResultCache(cache_file)
        scheduler = CampaignScheduler(store=store, result_cache=cache)
        names = {}
        for spec in default_campaign_specs(suite_seed):
            names[scheduler.add(spec).campaign_id] = spec.name
        for _ in range(self.interrupt_after):
            if scheduler.step() is None:
                break
        scheduler.drain()
        analytics = Analytics(store)
        analytics.refresh()
        analytics.close()
        cache.close()
        store.close()
        # A restarted daemon: fresh store handle, cache and scheduler.
        store, cache = SqliteStore(store_path), SqliteResultCache(cache_file)
        scheduler = CampaignScheduler(store=store, result_cache=cache)
        for campaign_id in names:
            scheduler.add_existing(campaign_id)
        results = scheduler.run()
        # Reopening the mirror keeps its cursor, so this refresh is incremental.
        analytics = Analytics(store)
        analytics.refresh()
        reports = {kind: canonical(analytics.report(kind)) for kind in self.kinds}
        analytics.close()
        cache.close()
        store.close()
        return {
            "results": {names[cid]: canonical(result.to_dict()) for cid, result in results.items()},
            "reports": reports,
            "store_bytes": sqlite_bytes(store_path),
            "campaigns": len(names),
            "final": {names[cid]: result.final_report for cid, result in results.items()},
        }

    def measure(self, seconds):
        def run_op(index):
            slot, traced = self._input_of(index)
            suite_seed = self.seeds[slot % len(self.seeds)]
            where = self.workdir / f"op{index}"
            start = time.perf_counter()
            outcome = self._traced(traced, index, lambda: self.suite(suite_seed, where))
            return Op(
                index, "suite", 0.0, time.perf_counter() - start, traced=traced,
                payload=(suite_seed, where, outcome),
            )

        self.ops, window = closed_loop(seconds, self.min_ops, run_op)
        return self.ops, window

    def check(self):
        references: dict[int, dict[str, str]] = {}
        failures, checks = [], 0
        for op in self.ops:
            if not op.ok:
                continue
            suite_seed, where, outcome = op.payload
            if suite_seed not in references:
                results = campaign_suite(InMemoryStore(), seed=suite_seed)
                references[suite_seed] = {name: canonical(r.to_dict()) for name, r in results.items()}
            checks += 1
            if outcome["results"] != references[suite_seed]:
                failures.append((op.index, "resumed suite differs from an uninterrupted one"))
            store = SqliteStore(str(where / "store.sqlite"))
            analytics = Analytics(store)
            analytics.rebuild()
            for kind in self.kinds:
                checks += 1
                if canonical(analytics.report(kind)) != outcome["reports"][kind]:
                    failures.append((op.index, f"incremental {kind} report differs from a rebuild"))
            analytics.close()
            store.close()
            shutil.rmtree(where, ignore_errors=True)
        return checks, failures

    def facts(self):
        done = [op.payload[2] for op in self.ops if op.ok]
        if not done:
            return {}
        per_campaign = sorted(o["store_bytes"] / 1024 / o["campaigns"] for o in done)
        reports = {}
        for op in self.ops:
            if op.ok:
                for name, report in op.payload[2]["final"].items():
                    if report is not None:
                        reports[(op.payload[0], name)] = report
        facts = {
            "store_kb_per_campaign": (per_campaign[len(per_campaign) // 2], "KB", f"median of {len(done)} suites"),
        }
        if reports:
            facts["final_loss"] = (sum(r.loss for r in reports.values()) / len(reports), "loss", f"mean of {len(reports)} evaluated campaigns")
            facts["final_avg_eer"] = (sum(r.avg_eer for r in reports.values()) / len(reports), "eer", f"mean of {len(reports)} evaluated campaigns")
        return facts


# -- serve -----------------------------------------------------------------------


#: The reader's cycle: (endpoint, client call).
READS = (
    ("list", lambda client, cid: client.list_campaigns()),
    ("show", lambda client, cid: client.show(cid)),
    ("log", lambda client, cid: client.log(cid)),
    ("report", lambda client, cid: client.report("summary")),
    ("health_deep", lambda client, cid: client.health_deep()),
    ("stats", lambda client, cid: client.stats()),
)


def writer_spec(index: int, seed: int) -> dict:
    """A small campaign the writer submits (distinct seed, so never deduplicated)."""
    return {
        "name": f"bench-write-{index}",
        "dataset": "fashion_like",
        "scenario": "basic",
        "method": "moderate" if index % 2 == 0 else "uniform",
        "budget": 800.0,
        "seed": seed,
        "base_size": 60,
        "validation_size": 40,
        "epochs": 10,
        "curve_points": 3,
        "evaluate": True,
    }


class Serve(Workload):
    """One reader and one writer against a ``repro.cli serve`` daemon."""

    name = "serve"
    #: Builtin suites stored before the daemon starts (3 campaigns each).
    prepopulate = 5
    idle_reads = 60
    #: The writer's pause between writes.  It keeps the number of campaigns
    #: a run adds (and so the cost of listing them) nearly independent of
    #: how fast each write is.
    think_s = 0.5

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.workdir / "serve.sqlite"
        store = SqliteStore(str(self.store_path))
        for seed in seeds_from(self.seed, self.prepopulate, "serve-store"):
            campaign_suite(store, seed=seed)
        self.campaign_ids = [record.campaign_id for record in store.list_campaigns()]
        store.close()
        self.spans_out = self.workdir / "daemon-spans.json"
        self.daemon, self.client = start_daemon(self.store_path, self.trace, self.spans_out)
        self.writer_seed = seeds_from(self.seed, 1, "serve-writer")[0]

    def idle(self) -> list[float]:
        """Reads with no writer: the baseline the loaded reads are compared to."""
        latencies = []
        for index in range(self.idle_reads):
            _, call = READS[index % len(READS)]
            start = time.perf_counter()
            call(self.client, self.campaign_ids[index % len(self.campaign_ids)])
            latencies.append(time.perf_counter() - start)
        return latencies

    def measure(self, seconds):
        self.idle_latencies = self.idle()
        url = self.client.base_url
        stop = threading.Event()
        reads: list[Op] = []
        writes: list[Op] = []
        begin = time.perf_counter()

        def reader():
            client = TunerClient(url, timeout=60.0)
            index = 0
            while not stop.is_set():
                name, call = READS[index % len(READS)]
                start = time.perf_counter()
                op = Op(index, name, start - begin, 0.0)
                try:
                    call(client, self.campaign_ids[index % len(self.campaign_ids)])
                except Exception as error:  # noqa: BLE001 - counted in failed_ratio
                    op.ok, op.error = False, repr(error)
                op.duration = time.perf_counter() - start
                reads.append(op)
                index += 1

        def writer():
            client = TunerClient(url, timeout=60.0)
            index = 0
            while not stop.is_set():
                spec = writer_spec(index, self.writer_seed + index)
                start = time.perf_counter()
                op = Op(index, "write", start - begin, 0.0, payload=spec)
                try:
                    submitted = client.submit(spec)
                    op.extra["submit_s"] = time.perf_counter() - start
                    for frame in client.tail(submitted["campaign_id"], after=0):
                        pass
                    op.duration = time.perf_counter() - start
                    op.extra["result"] = client.result(submitted["campaign_id"])
                except Exception as error:  # noqa: BLE001 - counted in failed_ratio
                    op.ok, op.error = False, repr(error)
                    op.duration = time.perf_counter() - start
                writes.append(op)
                index += 1
                stop.wait(self.think_s)

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        window = time.perf_counter() - begin
        for thread in threads:
            thread.join(timeout=120)
        self.reads, self.writes = reads, writes
        # Throughput counts only ops that ended inside the window.
        self.in_window = sum(1 for op in reads + writes if op.start + op.duration <= window)
        self.ops = reads + writes
        self.stats = self.client.stats()
        return self.ops, window

    def check(self):
        failures, checks = [], 0
        for op in self.writes:
            if not op.ok:
                continue
            checks += 1
            expected = Campaign.start(InMemoryStore(), CampaignSpec.from_dict(op.payload)).run().to_dict()
            if canonical(op.extra["result"]) != canonical(expected):
                failures.append((op.index, "served result differs from an in-process run"))
        return checks, failures

    def spans(self):
        stop_daemon(self.daemon)
        return read_spans(self.spans_out, "daemon")

    def teardown(self) -> None:
        stop_daemon(getattr(self, "daemon", None))
        super().teardown()

    def facts(self):
        writes = sorted(op.duration for op in self.writes if op.ok)
        facts = {}
        if writes:
            facts["write_p50_s"] = (writes[len(writes) // 2], "s", f"n={len(writes)} writes")
        stop_daemon(self.daemon)
        campaigns = len(self.campaign_ids) + len(writes)
        facts["store_kb_per_campaign"] = (
            sqlite_bytes(str(self.store_path)) / 1024 / campaigns, "KB", f"{campaigns} campaigns",
        )
        return facts


# -- cli -------------------------------------------------------------------------


class Cli(Workload):
    """Cold ``python -m repro.cli`` subprocesses over a fixed command cycle."""

    name = "cli"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        store_path = self.workdir / "cli.sqlite"
        store = SqliteStore(str(store_path))
        campaign_suite(store, seed=seeds_from(self.seed, 1, "cli-store")[0])
        campaign_id = store.list_campaigns()[0].campaign_id
        store.close()
        # The remote commands reach the serve layer through a daemon over the
        # same store.
        self.daemon_out = self.workdir / "daemon-spans.json"
        self.daemon, client = start_daemon(store_path, self.trace, self.daemon_out)
        store, url = str(store_path), client.base_url
        self.run_seed = seeds_from(self.seed, 1, "cli-run")[0]
        self.commands = [
            (["strategies", "--json"], "repro.strategies/1"),
            (["sources", "--json"], "repro.sources/1"),
            (["campaign", "list", "--json", "--store", store], "repro.campaign.list/1"),
            (["report", "summary", "--json", "--store", store], "repro.report/1"),
            (["monitor", "status", "--json", "--store", store], "repro.monitor/1"),
            (["remote", "list", "--json", "--url", url], "repro.remote.list/1"),
            (["remote", "show", campaign_id, "--json", "--url", url], "repro.remote.show/1"),
            (None, "repro.run/1"),
        ]
        self.min_ops = len(self.commands) * (2 if self.trace else 1)
        self.span_files: list[Path] = []

    def argv(self, cycle: int, position: int) -> list[str]:
        args, _ = self.commands[position]
        if args is not None:
            return args
        return [
            "run", "--json", "--quiet", "--dataset", "adult_like", "--initial-size", "40",
            "--validation-size", "40", "--epochs", "5", "--curve-points", "3", "--budget", "120",
            "--method", "moderate", "--evaluate", "--seed", str(self.run_seed + cycle),
        ]

    def measure(self, seconds):
        env = child_env()

        def run_op(index):
            slot, traced = self._input_of(index)
            cycle, position = divmod(slot, len(self.commands))
            spans_out = self.workdir / f"spans-{index}.json"
            argv = cli_command(self.argv(cycle, position), traced, spans_out)
            start = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            duration = time.perf_counter() - start
            if traced:
                self.span_files.append(spans_out)
            return Op(
                index, self.commands[position][1], 0.0, duration, traced=traced,
                payload=(position, cycle, done.returncode, done.stdout, done.stderr[-400:]),
            )

        self.ops, window = closed_loop(seconds, self.min_ops, run_op)
        return self.ops, window

    def check(self):
        failures, checks = [], 0
        outputs: dict[tuple[int, int], str] = {}
        for op in self.ops:
            if not op.ok:
                continue
            position, cycle, code, stdout, stderr = op.payload
            checks += 1
            expected = self.commands[position][1]
            try:
                schema = json.loads(stdout).get("schema") if code == 0 else None
            except ValueError:
                schema = None
            if schema != expected:
                failures.append((op.index, f"exit {code}, schema {schema!r} (wanted {expected}) {stderr}"))
            elif expected == "repro.run/1":
                # A traced run prints the same result as the untraced one.
                result = canonical(json.loads(stdout)["result"])
                if outputs.setdefault((position, cycle), result) != result:
                    failures.append((op.index, "run result differs from its untraced twin"))
        return checks, failures

    def spans(self):
        stop_daemon(self.daemon)
        spans = read_spans(self.daemon_out, "daemon")
        for index, path in enumerate(self.span_files):
            spans.extend(read_spans(path, index, op=index))
        return spans

    def teardown(self) -> None:
        stop_daemon(getattr(self, "daemon", None))
        super().teardown()


WORKLOADS = {cls.name: cls for cls in (Tune, Campaigns, Serve, Cli)}
