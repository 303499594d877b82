"""Tests for repro.campaigns.scheduler (concurrent multiplexed campaigns)."""

from __future__ import annotations

import pytest

from repro.campaigns import (
    Campaign,
    CampaignScheduler,
    CampaignSpec,
    InMemoryStore,
)
from repro.engine.cache import InMemoryResultCache
from repro.engine.executor import SerialExecutor
from repro.experiments.runner import campaign_suite, default_campaign_specs
from repro.utils.exceptions import CampaignError

FAST = dict(
    dataset="adult_like",
    scenario="basic",
    seed=0,
    base_size=50,
    validation_size=50,
    epochs=8,
    curve_points=3,
)


def spec(name, **overrides) -> CampaignSpec:
    return CampaignSpec(name=name, **{**FAST, **overrides})


class TestSchedulingPolicy:
    def test_priority_lane_runs_first(self):
        scheduler = CampaignScheduler()
        ticks = []
        scheduler.add_progress_callback(ticks.append)
        scheduler.add(spec("low", method="uniform", budget=100.0, priority=0))
        scheduler.add(spec("high", method="moderate", budget=200.0, priority=1))
        scheduler.run()
        # Every "high" tick (including its completion) precedes every "low" one.
        names = [tick.name for tick in ticks]
        assert names.index("low") > max(
            i for i, name in enumerate(names) if name == "high"
        )

    def test_budget_fair_round_robin_within_a_lane(self):
        scheduler = CampaignScheduler()
        ticks = []
        scheduler.add_progress_callback(ticks.append)
        scheduler.add(spec("a", method="moderate", budget=600.0))
        scheduler.add(spec("b", method="conservative", budget=600.0, seed=1))
        scheduler.run()
        first_two = [tick.name for tick in ticks[:2]]
        # Neither campaign monopolizes the engine at the start: with equal
        # spent fractions the tie falls back to round-robin.
        assert first_two == ["a", "b"]
        # Both campaigns complete.
        assert {tick.name for tick in ticks if tick.done} == {"a", "b"}

    def test_duplicate_names_do_not_shadow_results(self):
        scheduler = CampaignScheduler()
        a = scheduler.add(spec("nightly", method="uniform", budget=80.0))
        b = scheduler.add(spec("nightly", method="uniform", budget=90.0))
        results = scheduler.run()
        # Same display name, different identity: both results survive
        # because the dict is keyed by the unique campaign id.
        assert set(results) == {a.campaign_id, b.campaign_id}
        assert results[a.campaign_id].budget == 80.0
        assert results[b.campaign_id].budget == 90.0

    def test_same_campaign_cannot_be_scheduled_twice(self):
        scheduler = CampaignScheduler()
        scheduler.add(spec("solo", budget=100.0, method="uniform"))
        with pytest.raises(CampaignError):
            scheduler.add(spec("solo-renamed", budget=100.0, method="uniform"))

    def test_spellings_of_one_method_are_one_campaign(self):
        scheduler = CampaignScheduler()
        scheduler.add(spec("dup", budget=100.0, method="Moderate"))
        with pytest.raises(CampaignError):
            scheduler.add(spec("dup", budget=100.0, method=" moderate "))
        assert len(scheduler.store.list_campaigns()) == 1

    def test_completed_campaigns_contribute_without_slots(self):
        store = InMemoryStore()
        done = Campaign.start(store, spec("done", method="uniform", budget=80.0))
        expected = done.run()

        scheduler = CampaignScheduler(store=store)
        ticks = []
        scheduler.add_progress_callback(ticks.append)
        scheduler.add_existing(done.campaign_id)
        results = scheduler.run()
        assert results[done.campaign_id].to_json() == expected.to_json()
        assert ticks == []  # replayed, never scheduled


class TestDeterminism:
    def test_scheduler_matches_serial_execution(self):
        """Determinism regression: interleaving campaigns over one shared
        serial executor (the CI / 1-CPU case) must produce exactly the
        results of running each campaign on its own."""
        specs = [
            spec("a", method="moderate", budget=600.0, evaluate=True),
            spec("b", method="conservative", budget=400.0, seed=1),
            spec("c", method="uniform", budget=100.0, seed=2, priority=1),
        ]
        serial = {
            s.name: Campaign.start(InMemoryStore(), s).run() for s in specs
        }

        scheduler = CampaignScheduler(
            executor=SerialExecutor(cache=InMemoryResultCache())
        )
        campaigns = {s.name: scheduler.add(s) for s in specs}
        by_id = scheduler.run()
        multiplexed = {
            name: by_id[campaign.campaign_id]
            for name, campaign in campaigns.items()
        }

        assert set(multiplexed) == set(serial)
        for name in serial:
            assert multiplexed[name].to_json() == serial[name].to_json()


class TestCampaignSuite:
    def test_suite_runs_heterogeneous_campaigns(self):
        progress = []
        results = campaign_suite(on_progress=progress.append, seed=0)
        assert set(results) == {
            s.name for s in default_campaign_specs(0)
        }
        for result in results.values():
            assert result.n_iterations >= 1
            assert result.spent > 0
        # Progress events cover every campaign.
        assert {tick.name for tick in progress} == set(results)

    def test_suite_is_reentrant_on_the_same_store(self):
        store = InMemoryStore()
        first = campaign_suite(store=store, seed=0)
        second = campaign_suite(store=store, seed=0)
        for name in first:
            assert second[name].to_json() == first[name].to_json()
        # Idempotent: the second pass deduplicated, not duplicated.
        assert len(store.list_campaigns()) == len(first)
