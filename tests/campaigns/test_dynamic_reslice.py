"""Dynamic re-slicing campaigns survive kill -9 at a re-slice boundary.

The acceptance test for durable re-slice events: a subprocess runs a
``dynamic`` campaign (``--discover kmeans --reslice-every 2``) against a
SQLite store and is SIGKILLed right after the iteration that precedes the
re-slice boundary, so the resumed run must re-discover the boundary itself.
The parent resumes the campaign and asserts the final result — including
the re-discovered slices — is byte-identical to an uninterrupted in-process
run, and that the replayed ``reslice`` events carry the same content
fingerprints.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.campaigns import Campaign, CampaignSpec, InMemoryStore, SqliteStore
from repro.campaigns.store import campaign_summary
from repro.campaigns.store import replay_events

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_SPEC_KWARGS = dict(
    name="dynamic",
    dataset="adult_like",
    scenario="exponential",
    method="conservative",
    budget=500.0,
    seed=20_000,
    base_size=60,
    validation_size=60,
    epochs=8,
    curve_points=3,
    discover="kmeans",
    reslice_every=2,
)

_CLI_FLAGS = [
    "--name", "dynamic",
    "--dataset", "adult_like",
    "--scenario", "exponential",
    "--method", "conservative",
    "--budget", "500",
    "--seed", "20000",
    "--initial-size", "60",
    "--validation-size", "60",
    "--epochs", "8",
    "--curve-points", "3",
    "--discover", "kmeans",
    "--reslice-every", "2",
]


def _reslice_log(store, campaign_id):
    events = store.events(campaign_id, kinds=("reslice",))
    return [
        (
            event.iteration,
            event.payload["slice_generation"],
            event.payload["method"],
            event.payload["fingerprint"],
            tuple(event.payload["slice_names"]),
        )
        for event in replay_events(events)
    ]


def test_kill9_at_reslice_boundary_resumes_byte_identical(tmp_path):
    baseline_store = InMemoryStore()
    baseline_campaign = Campaign.start(
        baseline_store, CampaignSpec(**_SPEC_KWARGS)
    )
    baseline = baseline_campaign.run()
    baseline_log = _reslice_log(baseline_store, baseline_campaign.campaign_id)
    assert baseline_log, "the baseline never crossed a re-slice boundary"
    assert baseline_campaign.slice_generation == baseline_log[-1][1]

    store_path = str(tmp_path / "dynamic.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Kill right after iteration 2 persisted: the re-slice fires at the top
    # of the next step, so the resumed run must re-discover the boundary.
    env["REPRO_CAMPAIGN_KILL_AFTER"] = "2"
    env["REPRO_CAMPAIGN_KILL_SIGNAL"] = "KILL"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "campaign", "start",
            *_CLI_FLAGS, "--store", store_path, "--quiet",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr)

    with SqliteStore(store_path) as store:
        [record] = store.list_campaigns()
        assert record.status != "completed"
        resumed = Campaign.resume(store, record.campaign_id).run()
        resumed_log = _reslice_log(store, record.campaign_id)
        summary = campaign_summary(store, record.campaign_id)

    assert resumed.to_json() == baseline.to_json()
    assert resumed_log == baseline_log
    assert summary["slice_generation"] == baseline_log[-1][1]


def test_reslice_events_replay_deduplicates_generations(tmp_path):
    """Killing *after* the boundary replays the same reslice under a newer
    store generation; replay_events must keep exactly one per iteration."""
    store_path = str(tmp_path / "late.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CAMPAIGN_KILL_AFTER"] = "3"
    env["REPRO_CAMPAIGN_KILL_SIGNAL"] = "TERM"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "campaign", "start",
            *_CLI_FLAGS, "--store", store_path, "--quiet",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == -signal.SIGTERM, (proc.returncode, proc.stderr)

    baseline_store = InMemoryStore()
    baseline_campaign = Campaign.start(
        baseline_store, CampaignSpec(**_SPEC_KWARGS)
    )
    baseline = baseline_campaign.run()
    baseline_log = _reslice_log(baseline_store, baseline_campaign.campaign_id)

    with SqliteStore(store_path) as store:
        [record] = store.list_campaigns()
        resumed = Campaign.resume(store, record.campaign_id).run()
        resumed_log = _reslice_log(store, record.campaign_id)
        iterations = [
            event.iteration
            for event in store.events(record.campaign_id, kinds=("reslice",))
        ]

    assert resumed.to_json() == baseline.to_json()
    # The collapsed log has one entry per boundary even if the raw store
    # accumulated the same boundary under several generations.
    assert resumed_log == baseline_log
    assert len(resumed_log) == len(set(iterations))
