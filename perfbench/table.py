"""Per-layer table across benchmark runs.

    python3 perfbench/table.py [RESULTS_DIR]

Reads the records ``run.py`` leaves in ``.perfbench_out/results/`` and
prints, for every per-layer metric, one column per workload holding the
median / IQR / n of that metric across the traced runs (``--trace 1``).
Then, per workload, each layer's busy time as a share of the root time,
the root op's own (untraced remainder) share, and the tracing overhead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import quartiles

WORKLOADS = ("tune", "campaigns", "serve", "cli")

#: Layer -> the span names whose busy time is that layer's share.
LAYER_SPANS = {
    "datasets": ("datasets.generate",),
    "ml": ("ml.fit",),
    "ml (train loss)": ("ml.loss",),
    "engine": ("engine.submit",),
    "curves": ("curves.estimate",),
    "core (solver)": ("core.optimize",),
    "core (evaluate)": ("core.evaluate",),
    "acquisition": ("acquisition.acquire",),
    "campaigns (append)": ("campaigns.append",),
    "campaigns (snapshot)": ("campaigns.snapshot",),
    "campaigns (restore)": ("campaigns.restore",),
    "campaigns (events read)": ("campaigns.events_read",),
    "campaigns (step)": ("campaigns.step",),
    "monitor": ("monitor.fold",),
    "campaigns (open/close)": ("campaigns.open",),
    "engine (cache open/close)": ("engine.cache_open",),
    "analytics": ("analytics.open", "analytics.refresh", "analytics.report"),
    "serve": ("serve.list", "serve.show", "serve.log", "serve.report", "serve.health_deep", "serve.stats", "serve.submit"),
}


def load(results: Path) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for path in sorted(results.glob("*-trace1.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["context"]["workload"], []).append(record)
    return records


def cell(values) -> str:
    median, iqr, n = quartiles(values)
    return f"{median:.4g} / {iqr:.2g} / {n}" if n else "-"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    results = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"
    records = load(results)
    present = [name for name in WORKLOADS if records.get(name)]
    if not present:
        print(f"no traced records in {results}", file=sys.stderr)
        return 1
    metrics = sorted({name for name in present for record in records[name] for name in record["layers"]})
    width = 26
    print("per-layer metrics: median / IQR / n across traced runs (per op unless a ratio or p50)")
    print(f"{'metric':<30}" + "".join(f"{name:>{width}}" for name in present))
    for metric in metrics:
        row = [cell([r["layers"][metric] for r in records[name] if metric in r["layers"]]) for name in present]
        print(f"{metric:<30}" + "".join(f"{value:>{width}}" for value in row))

    print("\nbusy time as a share of the root time (median / IQR / n across runs)")
    print(f"{'layer':<30}" + "".join(f"{name:>{width}}" for name in present))
    for layer, spans in LAYER_SPANS.items():
        row = []
        for name in present:
            shares = [
                sum(r["totals"].get(span, {}).get("busy", 0.0) for span in spans) / r["root_busy"]
                for r in records[name]
                if r["root_busy"]
            ]
            row.append(cell(shares))
        print(f"{layer:<30}" + "".join(f"{value:>{width}}" for value in row))
    print(f"{'cli.import_s / op_p50_s':<30}" + "".join(
        f"{cell([r['layers']['cli.import_s'] / r['summary']['op_p50_s'][0] for r in records[name]] if name == 'cli' else []):>{width}}"
        for name in present
    ))
    print(f"{'root op self share':<30}" + "".join(
        f"{cell([r['layers']['op.self_share'] for r in records[name]]):>{width}}" for name in present
    ))
    print(f"{'trace overhead (p50 ratio - 1)':<30}" + "".join(
        f"{cell([r['layers']['trace.overhead_ratio'] for r in records[name] if 'trace.overhead_ratio' in r['layers']]):>{width}}"
        for name in present
    ))
    print("\nroot time: the benchmark's op spans; for serve, the daemon's request and scheduler-step spans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
