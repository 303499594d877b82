"""Tests for repro.monitor.health (campaign monitor + service evaluator)."""

from __future__ import annotations

import pytest

from repro.campaigns import InMemoryStore
from repro.campaigns.store import (
    COMPLETED,
    RUNNING,
    CampaignEvent,
    CampaignRecord,
)
from repro.monitor import (
    Alert,
    CampaignMonitor,
    HealthEvaluator,
    alert_history,
    get_rule,
    worst_status,
)


def make_event(seq, kind, iteration, payload) -> CampaignEvent:
    return CampaignEvent(
        campaign_id="c-1",
        seq=seq,
        generation=0,
        iteration=iteration,
        kind=kind,
        payload=payload,
    )


def fulfillment(requested, delivered, providers=1, rounds=1, status="fulfilled"):
    return {
        "status": status,
        "effective": requested,
        "delivered": delivered,
        "shortfall": max(requested - delivered, 0),
        "rounds": rounds,
        "provenance": [f"p{i}" for i in range(providers)],
    }


def iteration_events(iteration, seq, *payloads, kind="fulfillment"):
    """One iteration's worth of events: payloads then the iteration marker."""
    events = [
        make_event(seq + i, kind, iteration, payload)
        for i, payload in enumerate(payloads)
    ]
    events.append(make_event(seq + len(payloads), "iteration", iteration, {}))
    return events


class TestWorstStatus:
    def test_ordering(self):
        assert worst_status([]) == "ok"
        assert worst_status(["ok", "degraded"]) == "degraded"
        assert worst_status(["degraded", "critical", "ok"]) == "critical"


class TestAlert:
    def test_dict_round_trip(self):
        alert = Alert(
            rule="provider_failover",
            component="acquisition",
            severity="degraded",
            state="fired",
            value=0.75,
            threshold=0.4,
            window=3,
            iteration=2,
            message="x",
        )
        assert Alert.from_dict(alert.to_dict()) == alert
        # Payloads never embed seqs/generations/timestamps.
        assert set(alert.to_dict()) == {
            "rule", "component", "severity", "state", "value",
            "threshold", "window", "iteration", "message",
        }


class TestCampaignMonitor:
    def test_fire_and_resolve_cycle(self):
        monitor = CampaignMonitor("c-1", rules=(get_rule("provider_failover"),))
        bad = fulfillment(10, 10, providers=2)  # failover happened
        good = fulfillment(10, 10)
        # min_samples=2: the first troubled iteration alone cannot fire.
        assert monitor.fold(iteration_events(1, 0, bad)) == []
        alerts = monitor.fold(iteration_events(2, 2, bad))
        assert [a.state for a in alerts] == ["fired"]
        assert alerts[0].iteration == 2
        assert alerts[0].value == pytest.approx(1.0)
        assert monitor.active == ("provider_failover",)
        # Recovery: enough clean iterations pull the window mean under 0.4.
        assert monitor.fold(iteration_events(3, 4, good)) == []
        resolved = monitor.fold(iteration_events(4, 6, good))
        assert [a.state for a in resolved] == ["resolved"]
        assert monitor.active == ()

    def test_debounce_suppresses_flapping(self):
        # A window-1 rule flips with every sample; debounce=2 must swallow
        # the breach that lands right after a resolve.
        from repro.monitor import AlertRule

        flappy = AlertRule(
            name="flappy",
            component="acquisition",
            scope="campaign",
            signal="failover_rate",
            predicate="gt",
            threshold=0.5,
            window=1,
            min_samples=1,
            severity="degraded",
            debounce=2,
        )
        monitor = CampaignMonitor("c-1", rules=(flappy,))
        bad, good = fulfillment(10, 10, rounds=2), fulfillment(10, 10)
        states = []
        # bad -> fired@1; good -> resolved@2; bad@3 is within debounce
        # (3 - 2 < 2) and is suppressed; bad@4 re-fires.
        for iteration, payload in enumerate([bad, good, bad, bad], start=1):
            alerts = monitor.fold(
                iteration_events(iteration, iteration * 2, payload)
            )
            states.extend((a.state, a.iteration) for a in alerts)
        assert states == [("fired", 1), ("resolved", 2), ("fired", 4)]

    def test_skipped_fulfillments_are_benign(self):
        monitor = CampaignMonitor("c-1", rules=(get_rule("provider_failover"),))
        skipped = fulfillment(0, 0, status="skipped")
        for iteration in range(1, 4):
            assert monitor.fold(
                iteration_events(iteration, iteration * 2, skipped)
            ) == []

    def test_shortfall_rate_is_ratio_of_payload_integers(self):
        monitor = CampaignMonitor(
            "c-1", rules=(get_rule("fulfillment_shortfall"),)
        )
        short = fulfillment(100, 40, status="partial")
        monitor.fold(iteration_events(1, 0, short))
        alerts = monitor.fold(iteration_events(2, 2, short))
        assert [a.state for a in alerts] == ["fired"]
        assert alerts[0].value == pytest.approx(0.6)

    def test_span_error_rate_from_telemetry_events(self):
        monitor = CampaignMonitor("c-1", rules=(get_rule("span_error_rate"),))
        bad_span = {"name": "engine.submit", "status": "error"}
        alerts = monitor.fold(
            iteration_events(1, 0, bad_span, kind="telemetry")
        )
        assert [a.state for a in alerts] == ["fired"]  # min_samples=1

    def test_finalize_resolves_active_alerts_at_minus_one(self):
        monitor = CampaignMonitor("c-1", rules=(get_rule("provider_failover"),))
        bad = fulfillment(10, 10, providers=3)
        monitor.fold(iteration_events(1, 0, bad))
        monitor.fold(iteration_events(2, 2, bad))
        final = monitor.finalize()
        assert [(a.state, a.iteration) for a in final] == [("resolved", -1)]
        assert monitor.finalize() == []  # idempotent

    def test_fold_skips_alert_events(self):
        # Folding a log that already contains alert events (a replay)
        # must not double-count them as input signals.
        monitor = CampaignMonitor("c-1", rules=(get_rule("provider_failover"),))
        bad = fulfillment(10, 10, providers=2)
        events = iteration_events(1, 0, bad)
        events.append(make_event(9, "alert", 1, {"rule": "provider_failover"}))
        events.extend(iteration_events(2, 10, bad))
        alerts = monitor.fold(events)
        assert [a.state for a in alerts] == ["fired"]

    def test_warmup_reproduces_live_state(self):
        bad, good = fulfillment(10, 10, rounds=3), fulfillment(10, 10)
        script = [(1, bad), (2, bad), (3, good), (4, good), (5, bad)]
        events = []
        seq = 0
        for iteration, payload in script:
            events.extend(iteration_events(iteration, seq, payload))
            seq += 2

        live = CampaignMonitor("c-1")
        live_alerts = [a for a in live.fold(events)]

        warmed = CampaignMonitor("c-1")
        warmed.warmup(events[:6], up_to_iteration=3)  # through iteration 3
        resumed_alerts = warmed.fold(events[6:])
        # The warmed monitor replays the tail into the same transitions the
        # live monitor saw for those iterations.
        assert [a.to_dict() for a in resumed_alerts] == [
            a.to_dict() for a in live_alerts if a.iteration > 3
        ]
        assert warmed.active == live.active


def snapshot(**counters):
    return {"counters": counters}


class TestHealthEvaluator:
    def test_cache_collapse_requires_prior_hits(self):
        evaluator = HealthEvaluator()
        # A run that never hits the cache is all misses — legitimately so.
        for step in range(1, 8):
            alerts = evaluator.observe(
                snapshot(**{"engine.cache_misses": step * 10})
            )
            assert alerts == []
        assert evaluator.health()["components"]["cache"]["status"] == "ok"

    def test_cache_collapse_fires_and_recovers(self):
        evaluator = HealthEvaluator()
        # Warm phase: the cache serves hits.
        hits, misses = 0, 0
        for _ in range(3):
            hits += 9
            misses += 1
            evaluator.observe(
                snapshot(**{
                    "engine.cache_hits": hits,
                    "engine.cache_misses": misses,
                })
            )
        # Collapse: only misses from here on.
        fired = []
        for _ in range(5):
            misses += 10
            fired += evaluator.observe(
                snapshot(**{
                    "engine.cache_hits": hits,
                    "engine.cache_misses": misses,
                })
            )
        assert [a.rule for a in fired] == ["cache_hit_collapse"]
        verdict = evaluator.health()
        assert verdict["components"]["cache"]["status"] == "degraded"
        assert verdict["status"] == "degraded"
        # Recovery: hits resume and the window mean climbs back over 10%.
        resolved = []
        for _ in range(6):
            hits += 10
            resolved += evaluator.observe(
                snapshot(**{
                    "engine.cache_hits": hits,
                    "engine.cache_misses": misses,
                })
            )
        assert [a.state for a in resolved] == ["resolved"]
        assert evaluator.health()["status"] == "ok"

    def test_lane_starvation_needs_lanes_and_history(self):
        evaluator = HealthEvaluator()
        # One lane only: no sample, whatever the step count.
        evaluator.observe(snapshot(**{"scheduler.lane_steps{lane=0}": 100}))
        # Two lanes but under the minimum history: still no sample.
        evaluator.observe(snapshot(**{
            "scheduler.lane_steps{lane=0}": 10,
            "scheduler.lane_steps{lane=1}": 5,
        }))
        assert evaluator.health()["components"]["scheduler"]["status"] == "ok"
        # A starved lane across enough snapshots fires.
        fired = []
        for step in range(3, 9):
            fired += evaluator.observe(snapshot(**{
                "scheduler.lane_steps{lane=0}": step * 40,
                "scheduler.lane_steps{lane=1}": 1,
            }))
        assert [a.rule for a in fired] == ["lane_starvation"]

    def test_health_folds_store_and_serve_state(self):
        store = InMemoryStore()
        store.create_campaign(CampaignRecord(
            campaign_id="c-1", name="c", fingerprint="f1", spec={},
            status=RUNNING,
        ))
        store.append_event(
            "c-1", generation=0, kind="alert", iteration=2, payload={
                "rule": "fulfillment_shortfall",
                "component": "acquisition",
                "severity": "critical",
                "state": "fired",
                "value": 0.6,
                "threshold": 0.2,
                "window": 3,
                "iteration": 2,
                "message": "m",
            },
        )
        evaluator = HealthEvaluator()
        verdict = evaluator.health(store=store)
        assert verdict["components"]["acquisition"]["status"] == "critical"
        assert verdict["status"] == "critical"
        # Terminal campaigns drop out of the live verdict.
        store.set_status("c-1", COMPLETED)
        assert evaluator.health(store=store)["status"] == "ok"
        # The daemon's own flags land on the serve component.
        draining = evaluator.health(
            store=store, serve_state={"draining": True}
        )
        assert draining["components"]["serve"]["status"] == "degraded"
        broken = evaluator.health(
            store=store, serve_state={"pump_error": "boom"}
        )
        assert broken["components"]["serve"]["status"] == "critical"
        assert broken["status"] == "critical"

    def test_health_lists_campaigns_once(self):
        # One list_campaigns per health check, however many campaigns run:
        # each running campaign's alerts are read from its own log, not by
        # listing every campaign again.
        class CountingStore(InMemoryStore):
            list_calls = 0

            def list_campaigns(self):
                self.list_calls += 1
                return super().list_campaigns()

        store = CountingStore()
        for index in range(4):
            campaign_id = f"c-{index}"
            store.create_campaign(CampaignRecord(
                campaign_id=campaign_id, name=campaign_id,
                fingerprint=f"f{index}", spec={}, status=RUNNING,
            ))
            alert = Alert(
                rule="provider_failover", component="acquisition",
                severity="degraded", state="fired", value=0.5, threshold=0.3,
                window=3, iteration=1, message="m",
            )
            store.append_event(
                campaign_id, generation=0, kind="alert", iteration=1,
                payload=alert.to_dict(),
            )
        verdict = HealthEvaluator().health(store=store)
        assert store.list_calls == 1
        assert len(verdict["components"]["acquisition"]["alerts"]) == 4


class TestAlertHistory:
    def test_rows_annotate_payloads_with_seq_and_generation(self):
        store = InMemoryStore()
        store.create_campaign(CampaignRecord(
            campaign_id="c-1", name="c", fingerprint="f1", spec={},
        ))
        payload = {"rule": "provider_failover", "state": "fired"}
        store.append_event("c-1", generation=0, kind="alert", iteration=1, payload=payload)
        store.append_event("c-1", generation=0, kind="iteration", iteration=1, payload={})
        rows = alert_history(store)
        assert len(rows) == 1
        assert rows[0]["campaign_id"] == "c-1"
        assert rows[0]["rule"] == "provider_failover"
        assert rows[0]["seq"] == 1
        assert rows[0]["generation"] == 0
        assert alert_history(store, "c-1") == rows
        assert alert_history(store, "other") == []
