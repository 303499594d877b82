"""Concurrency guarantees: disjoint campaign span trees, worker shipping.

Two claims under test:

* driving N campaigns through one :class:`TunerService` (whose scheduler
  multiplexes them over one shared tracer) yields N *disjoint*, well-nested
  span trees — no span of one campaign is ever parented under, or persisted
  to, another campaign;
* a :class:`ProcessPoolExecutor` worker's spans survive the pickle
  round-trip: they come back with deterministic ids stitched under the
  parent process's ``engine.submit`` span, in submission order, without
  touching the job results.
"""

from __future__ import annotations

import numpy as np

from repro.campaigns import COMPLETED, Campaign, CampaignSpec, InMemoryStore
from repro.campaigns.store import CampaignLog
from repro.engine.cache import InMemoryResultCache
from repro.engine.executor import ProcessPoolExecutor, SerialExecutor
from repro.engine.factories import get_model_factory
from repro.engine.job import TrainingJob
from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig
from repro.serve import TunerService
from repro.telemetry import derive_span_id

from tests.serve.conftest import multi_spec, tiny_spec


def _wait_done(service, campaign_id, timeout=120.0):
    import time

    deadline = time.monotonic() + timeout
    while service.status(campaign_id) != COMPLETED:
        assert time.monotonic() < deadline, service.status(campaign_id)
        service.wait_for_activity(0.1)


class TestDisjointCampaignTrees:
    def test_concurrent_campaigns_keep_disjoint_well_nested_trees(
        self, live_tracer
    ):
        n = 3
        service = TunerService().start()
        try:
            ids = [
                service.submit(tiny_spec(name=f"traced-{i}", seed=3 + i))[
                    "campaign_id"
                ]
                for i in range(n)
            ]
            assert len(set(ids)) == n
            for campaign_id in ids:
                _wait_done(service, campaign_id)
            per_campaign = {}
            for campaign_id in ids:
                events = service.store.events(campaign_id, kinds=("telemetry",))
                spans = [event.payload for event in events]
                assert spans, f"campaign {campaign_id} persisted no spans"
                per_campaign[campaign_id] = spans
            # Disjoint: no span id appears under two campaigns, and every
            # span's baggage scope is the campaign it was persisted to.
            id_sets = {
                campaign_id: {span["span_id"] for span in spans}
                for campaign_id, spans in per_campaign.items()
            }
            for campaign_id, spans in per_campaign.items():
                others = set().union(
                    *(ids_ for cid, ids_ in id_sets.items() if cid != campaign_id)
                )
                assert id_sets[campaign_id].isdisjoint(others)
                for span in spans:
                    assert span["baggage"]["scope"] == campaign_id
                    # Well-nested: a persisted parent is never another
                    # campaign's span (it is either this campaign's or an
                    # unpersisted ancestor like scheduler.step).
                    assert span["parent_id"] not in others
            # The per-campaign HTTP summary is built from these same events.
            summary = service.span_summary(ids[0])
            assert summary["span_count"] == len(per_campaign[ids[0]])
            assert summary["tracing"] is True
        finally:
            service.close()

    def test_resumed_campaign_counts_each_span_once(self, live_tracer):
        # Crash between snapshots: iteration 3 runs (and persists its spans)
        # twice, once per generation.  The span summary collapses
        # generations like the replayed log and ``report telemetry`` do.
        store = InMemoryStore()
        spec = CampaignSpec.from_dict(
            multi_spec(name="resumed-spans", checkpoint_every=2)
        )
        campaign = Campaign.start(store, spec)
        for _ in range(3):
            campaign.advance()
        del campaign  # abandoned: no pause, no final checkpoint
        campaign_id = spec.campaign_id()
        assert Campaign.resume(store, campaign_id).run() is not None
        service = TunerService(store=store)
        try:
            summary = service.span_summary(campaign_id)
            replayed = CampaignLog.read(store, campaign_id, ("telemetry",)).events
            report = service.report("telemetry", campaign_id)
            rows = report["sections"]["telemetry_spans"]["rows"]
            assert summary["span_count"] == len(replayed) == len(rows)
            raw = store.events(campaign_id, kinds=("telemetry",))
            assert len(raw) > len(replayed)
        finally:
            service.close()

    def test_metrics_endpoint_merges_service_and_process_registries(
        self, live_tracer
    ):
        service = TunerService().start()
        try:
            submitted = service.submit(tiny_spec(name="metrics"))
            _wait_done(service, submitted["campaign_id"])
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["scheduler.steps"] >= 1
            assert snapshot["counters"]["session.iterations"] >= 1
        finally:
            service.close()


class TestWorkerSpanShipping:
    def _jobs(self, count=4):
        rng = np.random.default_rng(42)
        jobs = []
        for index in range(count):
            dataset = Dataset(
                rng.normal(size=(25, 3)), rng.integers(0, 2, size=25)
            )
            jobs.append(
                TrainingJob(
                    train=dataset,
                    n_classes=2,
                    seed=200 + index,
                    trainer_config=TrainingConfig(epochs=2, batch_size=8),
                    model_factory=get_model_factory("softmax"),
                    factory_name="softmax",
                    tag=index,
                )
            )
        return jobs

    def test_worker_spans_round_trip_through_the_pool(self, live_tracer):
        _, sink = live_tracer
        jobs = self._jobs()
        with ProcessPoolExecutor(max_workers=2) as executor:
            results = executor.submit(jobs)
        assert [result.tag for result in results] == [0, 1, 2, 3]
        submits = [s for s in sink.spans() if s.name == "engine.submit"]
        assert len(submits) == 1
        job_spans = [s for s in sink.spans() if s.name == "engine.job"]
        assert len(job_spans) == len(jobs)
        # Shipped spans are stitched under the submit span with their
        # submission index as the sequence -> fully deterministic ids.
        job_spans.sort(key=lambda span: span.sequence)
        for index, span in enumerate(job_spans):
            assert span.parent_id == submits[0].span_id
            assert span.sequence == index
            assert span.span_id == derive_span_id(
                submits[0].span_id, "engine.job", index
            )
            assert span.duration is not None and span.duration > 0.0
            assert span.attributes["from_cache"] is False
        # The four same-shape jobs form one lock-step group, shipped as two
        # chunks of two; each chunk trains under one engine.train span whose
        # sequence is its first job's submission index.
        train_spans = sorted(
            (s for s in sink.spans() if s.name == "engine.train"),
            key=lambda span: span.sequence,
        )
        assert [span.sequence for span in train_spans] == [0, 1]
        for span in train_spans:
            assert span.parent_id == submits[0].span_id
            assert span.span_id == derive_span_id(
                submits[0].span_id, "engine.train", span.sequence
            )
            # 25 rows in batches of 8: three full steps and one ragged
            # sub-step per model and epoch, over two epochs.
            assert span.attributes == {"jobs": 2, "steps": 2 * (3 + 2)}
        # The training time sits on the chunk spans, not on the job markers.
        job_seconds = sum(span.duration for span in job_spans)
        assert job_seconds < sum(span.duration for span in train_spans)

    def test_shipping_does_not_change_results(self, live_tracer):
        jobs = self._jobs()
        serial = SerialExecutor().submit(jobs)
        with ProcessPoolExecutor(max_workers=2) as executor:
            parallel = executor.submit(jobs)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.model.weights, p.model.weights)
            np.testing.assert_array_equal(s.model.bias, p.model.bias)
            assert s.training == p.training

    def test_serial_lockstep_group_emits_one_train_span(self, live_tracer):
        from repro.telemetry import get_registry

        _, sink = live_tracer
        jobs = self._jobs()
        mlp = TrainingJob(
            train=jobs[0].train, n_classes=2, seed=9,
            trainer_config=jobs[0].trainer_config, factory_name="mlp",
        )
        SerialExecutor().submit([*jobs, mlp])
        (submit,) = [s for s in sink.spans() if s.name == "engine.submit"]
        assert submit.attributes["groups"] == 1
        assert submit.attributes["stacked"] == len(jobs)
        (train,) = [s for s in sink.spans() if s.name == "engine.train"]
        assert train.parent_id == submit.span_id
        # 25 rows in batches of 8: three full steps and one ragged
        # sub-step per model and epoch, over two epochs.
        assert train.attributes == {"jobs": len(jobs), "steps": 2 * (3 + len(jobs))}
        counters = get_registry().snapshot()["counters"]
        assert counters["engine.stacked_jobs"] == len(jobs)
        assert counters["engine.jobs"] == len(jobs) + 1

    def test_worker_metrics_merge_into_the_parent_registry(self, live_tracer):
        from repro.telemetry import get_registry

        jobs = self._jobs()
        cache = InMemoryResultCache()
        with ProcessPoolExecutor(max_workers=2, cache=cache) as executor:
            executor.submit(jobs)
        counters = get_registry().snapshot()["counters"]
        assert counters["engine.jobs"] == len(jobs)
        assert counters["engine.cache_misses"] == len(jobs)
