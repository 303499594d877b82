"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/smoke.py -q

Runs every workload at minimal length, untraced and traced, and checks the
result line: every metric ``BENCHMARK.json`` names is present with its unit,
and nothing failed.  Also checks that the command refuses to run, without
printing a result, in a directory that holds only the benchmark.  Takes a
couple of minutes; the file name keeps it out of the default test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tune", "campaigns", "serve", "cli"])
def test_workload_reports_every_metric(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_ratio is 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert "failed_ratio" in done.stdout


def test_refuses_without_the_program():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "tune", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
