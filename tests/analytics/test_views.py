"""SQL views vs. the pure-Python reference, plus hand-checked contents.

``assert_consistent`` does the heavy lifting (every view, row for row,
cell for cell); the content tests here pin the *semantics* to hand-computed
numbers so a bug that breaks view and reference identically still fails.
"""

from __future__ import annotations

import pytest

from repro.analytics import (
    Analytics,
    REPORT_SECTIONS,
    VIEW_DEFINITIONS,
    assert_consistent,
    reference_rows,
)
from repro.campaigns.store import CampaignRecord, SqliteStore, campaign_summary
from repro.utils.exceptions import AnalyticsError

from tests.analytics.conftest import fill_store


@pytest.fixture
def analytics(filled_store):
    with Analytics(filled_store, path=":memory:") as a:
        a.refresh()
        yield a


class TestConsistency:
    def test_every_view_matches_its_reference(self, filled_store):
        counts = assert_consistent(filled_store)
        assert set(counts) == set(VIEW_DEFINITIONS)
        assert all(n >= 0 for n in counts.values())
        # The fixture exercises every view with at least one row.
        assert counts["campaign_rollup"] == 3
        assert counts["reslice_trends"] == 1

    def test_per_campaign_filters_match_reference(self, filled_store, analytics):
        for view, definition in VIEW_DEFINITIONS.items():
            if not definition.campaign_filterable:
                continue
            for cid in ("c-alpha", "c-beta", "c-gamma"):
                assert analytics.rows(view, cid) == [
                    tuple(r) for r in reference_rows(filled_store, view, cid)
                ]

    def test_mismatch_is_reported_with_view_and_row(self, filled_store, analytics):
        # Corrupt one mirrored payload; the verifier must name the view.
        analytics._conn.execute(
            "UPDATE events SET payload = json_set(payload, '$.spent', 999.0) "
            "WHERE kind = 'iteration' AND campaign_id = 'c-alpha' "
            "AND iteration = 0"
        )
        with pytest.raises(
            AnalyticsError, match=r"view '\w+' row \d+ column 'spent'"
        ):
            assert_consistent(filled_store, analytics)


class TestOneFold:
    def test_assert_consistent_reads_each_campaign_once(self, tmp_path):
        # All ten reference views share one read of each campaign's log.
        # A file-backed store keeps the mirror's own refresh off events().
        class CountingStore(SqliteStore):
            reads = 0

            def events(self, *args, **kwargs):
                self.reads += 1
                return super().events(*args, **kwargs)

        store = CountingStore(str(tmp_path / "campaigns.sqlite"))
        try:
            fill_store(store)
            for cid in ("c-delta", "c-epsilon"):
                store.create_campaign(CampaignRecord(
                    campaign_id=cid, name=cid, fingerprint=f"fp-{cid}",
                    spec={"budget": 100.0}, created_at=1000.0,
                ))
            store.reads = 0
            counts = assert_consistent(store)
            assert counts["campaign_rollup"] == 5
            assert store.reads == 5
        finally:
            store.close()

    def test_summary_totals_equal_the_sql_rollup(self, filled_store, analytics):
        columns = analytics.columns("campaign_rollup")
        rows = analytics.rows("campaign_rollup")
        assert len(rows) == 3
        for row in rows:
            rollup = dict(zip(columns, row))
            summary = campaign_summary(filled_store, rollup["campaign_id"])
            for key in ("iterations", "spent", "fulfillments", "slice_generation"):
                assert summary[key] == rollup[key], (rollup["campaign_id"], key)


class TestRollup:
    def test_hand_computed_rollup(self, analytics):
        rows = analytics.rows("campaign_rollup")
        assert rows == [
            ("c-alpha", "alpha", "completed", 0, 300.0, 3, 24.75, 3, 0, 0, 7),
            ("c-beta", "beta", "running", 1, 500.0, 4, 12.5, 1, 2, 1, 6),
            ("c-gamma", "gamma", "failed", 0, 200.0, 0, 0.0, 0, 0, 0, 0),
        ]


class TestFulfillment:
    def test_shortfall_and_failover_rates(self, analytics):
        rows = {r[0]: r for r in analytics.rows("fulfillment_rates")}
        columns = analytics.columns("fulfillment_rates")
        alpha = dict(zip(columns, rows["c-alpha"]))
        assert alpha["fulfillments"] == 3
        assert alpha["requested"] == alpha["delivered"] == 15
        assert alpha["shortfall_rate"] == 0.0
        assert alpha["failover_rate"] == 0.0
        beta = dict(zip(columns, rows["c-beta"]))
        assert beta["shortfall"] == 2
        assert beta["shortfall_rate"] == 0.5  # 2 of 4 effective
        assert beta["failovers"] == 1  # provenance ["pool", "synth"]
        assert beta["failover_rate"] == 1.0
        assert beta["degraded"] == 1
        # The failed campaign still gets an explicit zero row.
        assert rows["c-gamma"][1:] == (0, 0, 0, 0, 0, 0.0, 0, 0, 0.0, 0.0)


class TestFairness:
    def test_lane_shares(self, analytics):
        rows = analytics.rows("lane_fairness")
        columns = analytics.columns("lane_fairness")
        lanes = {r[0]: dict(zip(columns, r)) for r in rows}
        assert set(lanes) == {0, 1}
        # Lane 0 = alpha + gamma; lane 1 = beta alone.
        assert lanes[0]["campaigns"] == 2
        assert lanes[0]["completed"] == 1
        assert lanes[0]["spent"] == 24.75
        assert lanes[1]["iterations"] == 4
        assert lanes[1]["spent"] == 12.5
        total = lanes[0]["spent"] + lanes[1]["spent"]
        assert lanes[0]["spent_share"] == lanes[0]["spent"] / total
        assert lanes[0]["budget_share"] == 0.5  # 500 of 1000
        assert lanes[0]["spent_share"] + lanes[1]["spent_share"] == pytest.approx(1.0)

    def test_fairness_is_not_per_campaign(self, analytics):
        with pytest.raises(AnalyticsError, match="global"):
            analytics.rows("lane_fairness", "c-alpha")


class TestTrajectories:
    def test_cumulative_acquisition_per_slice(self, analytics):
        rows = [r for r in analytics.rows("slice_trajectories") if r[0] == "c-alpha"]
        s0 = [(r[1], r[3], r[4]) for r in rows if r[2] == "s0"]
        assert s0 == [(0, 5, 5), (1, 5, 10), (2, 5, 15)]
        # Curve parameters ride along; s1 drifts at iteration 2.
        s1_curves = [(r[5], r[6]) for r in rows if r[2] == "s1"]
        assert s1_curves == [(3.0, 0.5), (3.0, 0.5), (3.0, 0.6)]

    def test_generation_collapse_keeps_newest(self, analytics):
        # beta iteration 2 exists at generations 0 and 1; exactly one
        # mirrored copy must survive, so the cum_spent trajectory has
        # one row per iteration.
        rows = [r for r in analytics.rows("campaign_costs") if r[0] == "c-beta"]
        assert [r[1] for r in rows] == [0, 1, 2, 3]
        assert [r[3] for r in rows] == [3.5, 7.0, 10.5, 12.5]


class TestCacheAndReslice:
    def test_curve_reuse_counts(self, analytics):
        rows = {
            (r[0], r[1]): r for r in analytics.rows("cache_trends")
        }
        # alpha iter 1: both curves unchanged -> full reuse.
        assert rows[("c-alpha", 1)][2:] == (2, 2, 2, 1.0)
        # alpha iter 2: s1 drifted -> half reuse.
        assert rows[("c-alpha", 2)][2:] == (2, 1, 2, 0.5)
        # beta iter 3 is post-reslice: only slice b has a predecessor.
        assert rows[("c-beta", 3)][2:] == (3, 1, 1, 1.0)

    def test_reslice_generation_high_water_mark(self, analytics):
        rows = analytics.rows("reslice_trends")
        assert len(rows) == 1
        (campaign, _seq, iteration, gen, max_gen, method, n, fp) = rows[0]
        assert (campaign, iteration, gen, max_gen) == ("c-beta", 3, 1, 1)
        assert (method, n, fp) == ("kmeans", 3, "abc")


class TestReportPayloads:
    def test_sections_follow_the_kind_map(self, analytics):
        for kind, views in REPORT_SECTIONS.items():
            payload = analytics.report(kind)
            assert payload["schema"] == "repro.report/1"
            assert payload["report"] == kind
            assert tuple(payload["sections"]) == views
            for view, section in payload["sections"].items():
                assert section["columns"] == list(VIEW_DEFINITIONS[view].columns)

    def test_unknown_kind_rejected(self, analytics):
        with pytest.raises(AnalyticsError, match="unknown report"):
            analytics.report("bogus")

    def test_unknown_view_rejected(self, analytics):
        with pytest.raises(AnalyticsError, match="unknown analytics view"):
            analytics.rows("nope")
