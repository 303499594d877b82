"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {tune,campaigns,serve,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  With ``--trace 0`` the run
measures the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics instead.  A table for people comes first on stdout and
the last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run also leaves its full record in
``.perfbench_out/results/`` for ``table.py``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Interpreter start-ups per figure of the ``cli`` import probe.
IMPORT_REPEATS = 3
#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: End-to-end figures only some workloads have, and why the others lack them.
NOT_MEASURED = {
    "write_p50_s": "only serve has writes (submit to end frame)",
    "final_loss": "only tune and campaigns evaluate the models they tune",
    "final_avg_eer": "only tune and campaigns evaluate the models they tune",
    "store_kb_per_campaign": "only campaigns and serve write a campaign store",
}
#: One BLAS thread for this process and every child.  The models are small
#: enough that a second BLAS thread only spin-waits; on a 2-CPU host it
#: made identical ops vary from 3.0 s to 5.3 s.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tune", "campaigns", "serve", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set the workload up once, print 'ready', tear down",
    )
    return parser.parse_args(argv)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    for percentile in TAIL_PERCENTILES:
        beyond = len(values) * (1 - percentile / 100)
        if beyond >= 10:
            rank = min(len(values) - 1, int(len(values) * percentile / 100))
            return percentile, values[rank]
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_subprocess(argv, env, until: str | None = None) -> float:
    """Seconds from spawning ``argv`` to its exit, or to the line ``until``."""
    start = time.perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    elapsed = None
    try:
        if until is not None:
            for line in process.stdout:
                if line.strip() == until:
                    elapsed = time.perf_counter() - start
                    break
        _, err = process.communicate(timeout=170)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if process.returncode != 0 or (until is not None and elapsed is None):
        raise RuntimeError(f"{argv[1:3]} failed with exit {process.returncode}: {err[-400:]}")
    return elapsed if elapsed is not None else time.perf_counter() - start


def measure_setup(args, env) -> list[float]:
    """Cold set-up times: a fresh interpreter imports the program and builds
    the workload's fixture, ``SETUP_REPEATS`` times."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    return [timed_subprocess(argv, env, until="ready") for _ in range(SETUP_REPEATS)]


def measure_import(env) -> dict[str, float]:
    """``cli`` layer: cold ``import repro.cli`` minus a bare interpreter, and
    the modules it loads."""
    bare = [timed_subprocess([sys.executable, "-c", "pass"], env) for _ in range(IMPORT_REPEATS)]
    full = [timed_subprocess([sys.executable, "-c", "import repro.cli"], env) for _ in range(IMPORT_REPEATS)]
    count = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print(len(sys.modules), "
         "sum(1 for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout.split()
    return {
        "cli.import_s": median(full) - median(bare),
        "cli.modules_loaded": float(count[0]),
        "cli.scipy_loaded": float(count[1]),
    }


def run_context(args) -> dict:
    import numpy
    import scipy

    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            lines += sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
    }


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(table: dict, n_ops: int) -> dict[str, float]:
    """Per-op layer figures from :func:`tracer.fold` totals."""
    per = max(n_ops, 1)

    def get(name, key="calls"):
        return float(table.get(name, {}).get(key, 0))

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    metrics = {
        "datasets.generate_calls": get("datasets.generate") / per,
        "datasets.generate_s": get("datasets.generate", "busy") / per,
        "ml.fit_calls": get("ml.fit") / per,
        "ml.fit_s": get("ml.fit", "busy") / per,
        "ml.epochs": get("ml.fit", "epochs") / per,
        "ml.loss_calls": get("ml.loss") / per,
        "ml.loss_s": get("ml.loss", "busy") / per,
        "engine.submit_calls": get("engine.submit") / per,
        "engine.jobs": get("engine.submit", "jobs") / per,
        "engine.jobs_per_submit": ratio(get("engine.submit", "jobs"), get("engine.submit")),
        "engine.submit_self_s": get("engine.submit", "self") / per,
        "engine.cache_hit_ratio": ratio(get("engine.submit", "hits"), get("engine.submit", "jobs")),
        "curves.estimate_calls": get("curves.estimate") / per,
        "curves.collect_s": get("curves.collect", "busy") / per,
        "curves.fit_s": get("curves.fit", "busy") / per,
        "curves.estimate_self_s": get("curves.estimate", "self") / per,
        "core.optimize_calls": get("core.optimize") / per,
        "core.optimize_s": get("core.optimize", "busy") / per,
        "core.evaluate_calls": get("core.evaluate") / per,
        "core.evaluate_s": get("core.evaluate", "busy") / per,
        "core.iterations": get("core.iteration") / per,
        "acquisition.acquire_calls": get("acquisition.acquire") / per,
        "acquisition.acquire_s": get("acquisition.acquire", "busy") / per,
        "acquisition.delivered_ratio": ratio(
            get("acquisition.acquire", "delivered"), get("acquisition.acquire", "requested")
        ),
        "acquisition.failovers": get("acquisition.acquire", "failovers") / per,
        "campaigns.append_calls": get("campaigns.append") / per,
        "campaigns.append_s": get("campaigns.append", "busy") / per,
        "campaigns.snapshot_calls": get("campaigns.snapshot") / per,
        "campaigns.snapshot_s": get("campaigns.snapshot", "busy") / per,
        "campaigns.snapshot_bytes": get("campaigns.snapshot", "bytes") / per,
        "campaigns.restore_s": get("campaigns.restore", "busy") / per,
        "campaigns.events_read_s": get("campaigns.events_read", "busy") / per,
        "campaigns.step_self_s": get("campaigns.step", "self") / per,
        "monitor.fold_calls": get("monitor.fold") / per,
        "monitor.fold_s": get("monitor.fold", "busy") / per,
        "analytics.refresh_s": get("analytics.refresh", "busy") / per,
        "analytics.refresh_events": get("analytics.refresh", "events") / per,
        "analytics.report_calls": get("analytics.report") / per,
        "analytics.report_s": get("analytics.report", "busy") / per,
        "op.self_share": ratio(get("op", "self"), get("op", "busy")),
    }
    return metrics


def ratio_bases(table: dict) -> dict[str, str]:
    """The base each printed ratio is taken over."""

    def get(name, key="calls"):
        return int(table.get(name, {}).get(key, 0))

    return {
        "engine.jobs_per_submit": f"{get('engine.submit', 'jobs')} jobs / {get('engine.submit')} submits",
        "engine.cache_hit_ratio": f"{get('engine.submit', 'hits')} hits / {get('engine.submit', 'jobs')} jobs",
        "acquisition.delivered_ratio": (
            f"{get('acquisition.acquire', 'delivered')} delivered / "
            f"{get('acquisition.acquire', 'requested')} requested"
        ),
        "op.self_share": "root op self time / root op time",
    }


def per_op_rows(spans) -> list[tuple]:
    """(span name, calls, busy s, self s) each as (median, IQR, n) across ops."""
    import tracer

    by_op = {op: rows for op, rows in tracer.fold_by_op(spans).items() if op is not None and op != -1}
    names = sorted({name for rows in by_op.values() for name in rows})
    table = []
    for name in names:
        cells = []
        for key in ("calls", "busy", "self"):
            cells.append(tracer.quartiles([rows.get(name, {}).get(key, 0.0) for rows in by_op.values()]))
        table.append((name, *cells))
    return table


# -- the run -----------------------------------------------------------------------


def probe(args) -> int:
    """One cold set-up, for ``measure_setup``."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, False, OUT / f"probe-{os.getpid()}")
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.teardown()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/repro and BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_TRACE_DIR", None)
    if args.setup_probe:
        return probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    import workloads

    env = workloads.child_env()
    setup_samples = measure_setup(args, env)
    import_figures = measure_import(env) if args.trace else {}

    workload = workloads.WORKLOADS[args.workload](args.seed, bool(args.trace), OUT / f"run-{os.getpid()}")
    try:
        workload.setup()
        ops, window = workload.measure(args.seconds)
        checks, failures = workload.check()
        facts = workload.facts()
        spans = workload.spans() if args.trace else []
    finally:
        workload.teardown()

    failed_ops = {op.index for op in ops if not op.ok} | {index for index, _ in failures}
    attempted = len(ops) + workload.extra_ops
    failed = len(failed_ops)
    primary = [op for op in ops if op.ok and not op.traced and op.kind != "write"]
    durations = [op.duration for op in primary]
    if args.workload == "serve":
        throughput = workload.in_window / window
    else:
        throughput = sum(1 for op in ops if op.ok and not op.traced) / sum(
            op.duration for op in ops if not op.traced
        )
    summary = {
        "setup_s": (median(setup_samples), "s", f"median of {len(setup_samples)} cold set-ups"),
        "op_p50_s": (median(durations), "s", f"n={len(durations)} ops"),
        "ops_per_s": (throughput, "1/s", f"window {window:.1f} s"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "this process and its children"),
        "failed_ratio": (failed / attempted, "ratio", f"{failed} failed / {attempted} attempted"),
    }
    tail_figure = tail(durations)
    summary["op_tail_s"] = (
        (tail_figure[1], "s", f"p{tail_figure[0]:g}, n={len(durations)}")
        if tail_figure else (float("nan"), "s", f"n={len(durations)} < 20: no percentile has 10 ops beyond it")
    )
    summary.update(facts)

    context = run_context(args)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("context: " + ", ".join(f"{key}={value}" for key, value in context.items() if key not in ("workload", "seed", "seconds", "trace")))
    print(f"{'end-to-end metric':<24}{'value':>14}  unit   base")
    for name, (value, unit, base) in summary.items():
        print(f"{name:<24}{value:>14.6g}  {unit:<6} {base}")
    for name, reason in NOT_MEASURED.items():
        if name not in summary:
            print(f"{name:<24}{'n/a':>14}  {'':<6} {reason}")
    for index, message in failures[:10]:
        print(f"check failed (op {index}): {message}")
    for op in [op for op in ops if not op.ok][:10]:
        print(f"op {op.index} ({op.kind}) raised: {op.error}")

    record = {
        "context": context, "summary": summary, "attempted": attempted, "failed": failed, "checks": checks,
        "setup_samples": setup_samples,
        "ops": [(op.kind, op.start, op.duration, op.ok, op.traced) for op in ops],
    }
    if args.trace:
        import tracer

        n_ops = len(ops) if args.workload == "serve" else sum(1 for op in ops if op.traced)
        table = tracer.fold(spans)
        metrics = {**layer_metrics(table, n_ops), **import_figures}
        traced = [op.duration for op in ops if op.ok and op.traced]
        if traced and durations:
            metrics["op.traced_p50_s"] = median(traced)
            metrics["trace.overhead_ratio"] = median(traced) / median(durations) - 1.0
        if args.workload == "serve":
            metrics.update(serve_metrics(workload))
        rows = per_op_rows(spans)
        bases = ratio_bases(table)
        root_busy = sum(span[tracer.END] - span[tracer.START] for span in spans if span[tracer.PARENT] is None)
        record.update({"layers": metrics, "bases": bases, "per_op": rows, "totals": table, "root_busy": root_busy})
        print_layers(metrics, bases, rows, spans, n_ops)
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        result_metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]} for m in wanted}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


def serve_metrics(workload) -> dict[str, float]:
    """Client-observed p50 per endpoint under load, idle reads, daemon counters."""
    import workloads

    metrics = {}
    for endpoint, _ in workloads.READS:
        metrics[f"serve.{endpoint}_s"] = median([op.duration for op in workload.reads if op.ok and op.kind == endpoint])
    metrics["serve.submit_s"] = median([op.extra["submit_s"] for op in workload.writes if "submit_s" in op.extra])
    metrics["serve.read_idle_p50_s"] = median(workload.idle_latencies)
    metrics["serve.requests"] = float(workload.stats.get("requests", 0))
    metrics["serve.events_streamed"] = float(workload.stats.get("events_streamed", 0))
    return metrics


def print_layers(metrics, bases, rows, spans, n_ops) -> None:
    import tracer

    print(f"\nper-layer metrics (per op over {n_ops} ops unless a ratio or p50)")
    for name, value in sorted(metrics.items()):
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name:<32}{value:>14.6g}{base}")
    if rows:
        print("\nspans per traced op: median / IQR / n across ops")
        print(f"  {'span':<22}{'calls':>16}{'busy s':>22}{'self s':>20}")
        for name, calls, busy, own in rows:
            print(
                f"  {name:<22}{calls[0]:>9.1f}/{calls[1]:<6.1f}"
                f"{busy[0]:>12.4f}/{busy[1]:<8.4f}{own[0]:>10.4f}/{own[1]:<8.4f} n={own[2]}"
            )
    daemon = tracer.fold([span for span in spans if span[tracer.OP] is None])
    if daemon:
        print("\nspan totals in the daemon (roots: request handlers and scheduler steps)")
        for name, row in sorted(daemon.items()):
            print(f"  {name:<22}calls={row['calls']:<8} busy={row['busy']:.4f}s self={row['self']:.4f}s")


if __name__ == "__main__":
    raise SystemExit(main())
