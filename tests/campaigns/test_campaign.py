"""Tests for repro.campaigns.campaign (durable, resumable runs)."""

from __future__ import annotations

import pytest

from repro.campaigns import (
    COMPLETED,
    PAUSED,
    Campaign,
    CampaignSpec,
    InMemoryStore,
    SqliteStore,
    campaign_summary,
)
from repro.utils.exceptions import CampaignError, ConfigurationError

#: Small, fast campaign shared by most tests (~4 iterations on adult_like).
FAST = dict(
    dataset="adult_like",
    scenario="basic",
    method="moderate",
    budget=600.0,
    seed=0,
    base_size=50,
    validation_size=50,
    epochs=8,
    curve_points=3,
)


def fast_spec(name="fast", **overrides) -> CampaignSpec:
    return CampaignSpec(name=name, **{**FAST, **overrides})


def baseline_result(spec: CampaignSpec):
    """The uninterrupted result of ``spec`` on a throwaway store."""
    return Campaign.start(InMemoryStore(), spec).run()


class TestCampaignSpec:
    def test_fingerprint_ignores_non_identity_fields(self):
        a = fast_spec(name="one", priority=0, checkpoint_every=1)
        b = fast_spec(name="two", priority=5, checkpoint_every=3)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_identity_fields(self):
        base = fast_spec()
        assert base.fingerprint() != fast_spec(budget=601.0).fingerprint()
        assert base.fingerprint() != fast_spec(method="uniform").fingerprint()
        assert base.fingerprint() != fast_spec(seed=1).fingerprint()

    def test_dict_round_trip(self):
        spec = fast_spec(source="mixed", evaluate=True, priority=2)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_campaign_id_is_deterministic_and_readable(self):
        spec = fast_spec(name="My Fancy Run!")
        assert spec.campaign_id() == spec.campaign_id()
        assert spec.campaign_id().startswith("my-fancy-run-")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            fast_spec(method="alchemy")

    @pytest.mark.parametrize(
        "method, discover",
        [
            ("water_filling", "kmeans"),
            ("Water_Filling", "KMeans"),
            ("  water_filling ", " kmeans"),
            ("WATERFILLING", "error_kmeans"),
        ],
    )
    def test_spellings_of_one_run_share_the_canonical_fingerprint(
        self, method, discover
    ):
        spec = fast_spec(method=method, discover=discover, reslice_every=2)
        assert (spec.method, spec.discover) == ("water_filling", "kmeans")
        # The fingerprint a spec spelled with primary names has always had.
        assert spec.fingerprint() == (
            "babd1fa1e832fb8e47cc21d4cf9ed61f6b099c53fdfa348113d1d3782e1f7bd4"
        )

    def test_invalid_checkpoint_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            fast_spec(checkpoint_every=0)


class TestRunAndPersist:
    def test_run_produces_same_result_as_plain_tuner_session(self):
        # The campaign wrapper must not perturb the underlying run.
        from repro.campaigns.campaign import build_campaign_tuner

        spec = fast_spec()
        campaign_result = baseline_result(spec)

        tuner = build_campaign_tuner(spec)
        session = tuner.session()
        for _ in session.stream(spec.budget, strategy=spec.method, lam=spec.lam):
            pass
        assert campaign_result.to_json() == session.result().to_json()

    def test_events_cover_every_iteration_and_fulfillment(self):
        store = InMemoryStore()
        spec = fast_spec()
        campaign = Campaign.start(store, spec)
        result = campaign.run()
        events = store.events(campaign.campaign_id)
        iteration_events = [e for e in events if e.kind == "iteration"]
        assert len(iteration_events) == result.n_iterations
        fulfillment_events = [e for e in events if e.kind == "fulfillment"]
        assert len(fulfillment_events) == sum(
            len(record.fulfillments) for record in result.iterations
        )
        assert [e.kind for e in events[-1:]] == ["completed"]
        assert store.get_campaign(campaign.campaign_id).status == COMPLETED

    def test_progress_replays_the_log(self):
        store = InMemoryStore()
        campaign = Campaign.start(store, fast_spec())
        result = campaign.run()
        summary = campaign_summary(store, campaign.campaign_id)
        assert summary["iterations"] == result.n_iterations
        assert summary["spent"] == pytest.approx(result.spent)
        assert summary["acquired"] == result.total_acquired
        assert summary["status"] == COMPLETED

    def test_result_before_completion_rejected(self):
        campaign = Campaign.start(InMemoryStore(), fast_spec())
        with pytest.raises(CampaignError):
            campaign.result()


class TestPauseAndResume:
    def test_max_steps_pauses_with_checkpoint(self):
        store = InMemoryStore()
        campaign = Campaign.start(store, fast_spec())
        assert campaign.run(max_steps=1) is None
        assert store.get_campaign(campaign.campaign_id).status == PAUSED
        assert store.latest_snapshot(campaign.campaign_id) is not None

    def test_pause_hook_stops_the_loop(self):
        store = InMemoryStore()
        campaign = Campaign.start(store, fast_spec())
        campaign.add_iteration_hook(lambda c, record: c.pause())
        assert campaign.run() is None
        assert store.get_campaign(campaign.campaign_id).status == PAUSED

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    def test_resume_matches_uninterrupted_at_every_interrupt_point(
        self, interrupt_after
    ):
        spec = fast_spec(evaluate=True)
        expected = baseline_result(spec)
        assert expected.n_iterations >= 3  # the interrupt points are mid-run

        store = InMemoryStore()
        first = Campaign.start(store, spec)
        assert first.run(max_steps=interrupt_after) is None

        resumed = Campaign.resume(store, first.campaign_id)
        result = resumed.run()
        assert result.to_json() == expected.to_json()

    def test_resumed_one_shot_campaign_runs_one_iteration(self):
        # A one-shot strategy paused after its only iteration must not run a
        # second one when resumed.
        from repro.experiments.runner import default_campaign_specs

        spec = next(
            s for s in default_campaign_specs(0) if s.method == "uniform"
        )
        expected = baseline_result(spec)
        assert expected.n_iterations == 1

        store = InMemoryStore()
        first = Campaign.start(store, spec)
        assert first.run(max_steps=1) is None
        result = Campaign.resume(store, first.campaign_id).run()
        assert result.n_iterations == 1
        assert result.to_json() == expected.to_json()

    def test_crash_between_snapshots_reexecutes_the_tail(self, tmp_path):
        # checkpoint_every=2 → the crash point (after 3 advances) has events
        # for iterations 1-3 but a snapshot only at iteration 2; resume must
        # re-execute iteration 3 deterministically from that snapshot.
        spec = fast_spec(checkpoint_every=2)
        expected = baseline_result(spec)

        path = str(tmp_path / "crash.sqlite")
        store = SqliteStore(path)
        campaign = Campaign.start(store, spec)
        for _ in range(3):
            campaign.advance()
        snapshot = store.latest_snapshot(campaign.campaign_id)
        assert snapshot.iteration == 2
        # Abrupt death: no pause(), no final checkpoint, just gone.
        store.close()
        del campaign

        reopened = SqliteStore(path)
        resumed = Campaign.resume(reopened, spec.campaign_id())
        result = resumed.run()
        assert result.to_json() == expected.to_json()
        # The re-executed iteration 3 was appended under a newer generation,
        # and replay collapses the log back to one consistent history.
        summary = campaign_summary(reopened, spec.campaign_id())
        assert summary["iterations"] == expected.n_iterations
        assert summary["spent"] == pytest.approx(expected.spent)
        assert summary["generations"] == 2
        reopened.close()

    def test_resume_restores_provider_state(self):
        # A draining pool with generator failover: resume must restore the
        # pool's remaining reserves and both providers' RNG streams, or the
        # delivered examples (and provenance) would diverge.
        spec = fast_spec(
            name="mixed", scenario="mixed_sources", method="conservative", budget=400.0
        )
        expected = baseline_result(spec)

        store = InMemoryStore()
        first = Campaign.start(store, spec)
        assert first.run(max_steps=1) is None
        result = Campaign.resume(store, first.campaign_id).run()
        assert result.to_json() == expected.to_json()

    def test_resume_unknown_campaign_rejected(self):
        with pytest.raises(CampaignError):
            Campaign.resume(InMemoryStore(), "ghost")


class TestIdempotentReruns:
    def test_completed_campaign_replays_without_rebuilding(self):
        store = InMemoryStore()
        spec = fast_spec()
        original = Campaign.start(store, spec).run()

        rerun = Campaign.start(store, spec)
        assert rerun.reused
        assert rerun.is_done
        assert rerun.run().to_json() == original.to_json()
        # No tuner was built, no training was performed.
        assert rerun.tuner is None

    def test_same_identity_different_name_deduplicates(self):
        store = InMemoryStore()
        Campaign.start(store, fast_spec(name="first")).run()
        rerun = Campaign.start(store, fast_spec(name="renamed", priority=3))
        assert rerun.reused
        assert len(store.list_campaigns()) == 1

    def test_unfinished_campaign_is_continued_not_duplicated(self):
        store = InMemoryStore()
        spec = fast_spec()
        first = Campaign.start(store, spec)
        assert first.run(max_steps=1) is None

        second = Campaign.start(store, spec)
        assert second.reused
        result = second.run()
        assert result.to_json() == baseline_result(spec).to_json()
        assert len(store.list_campaigns()) == 1
