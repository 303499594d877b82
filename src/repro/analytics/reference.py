"""Pure-Python reference implementations of every analytics view.

Each function recomputes one view of :mod:`repro.analytics.views` directly
from every campaign's :class:`~repro.campaigns.store.CampaignLog` (its
replayed log, read once and shared by all ten views) — no SQL involved —
and :func:`assert_consistent` compares the two row-for-row.  This is the
correctness tool of the analytics subsystem (exposed as
``cli report --verify`` and run in tests): the SQL is the fast production
path, the Python is the executable specification.

Exactness: comparisons use ``==`` on every cell, including floats.  That
works because both sides parse the same JSON payload text (SQLite's JSON1
float conversion matches Python's — verified empirically over random
doubles) and both sides add floats in the same explicit order (the SQL
uses running window sums with ``ORDER BY``; the reference accumulates in
that same order).  Curve-parameter *reuse* is compared by canonical JSON
rendering on both sides, so ``0.0`` vs ``-0.0`` count as a change in both.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.analytics.views import VIEW_DEFINITIONS
from repro.campaigns.store import CampaignLog, CampaignStore, campaign_logs
from repro.utils.exceptions import AnalyticsError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytics.refresh import Analytics

__all__ = ["reference_rows", "assert_consistent"]


def _ref_slice_trajectories(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        cum: dict[str, Any] = {}
        for event in log.iterations:
            curves = event.payload.get("curve_parameters", {})
            for name, acquired in event.payload["acquired"].items():
                cum[name] = acquired if name not in cum else cum[name] + acquired
                curve = curves.get(name)
                rows.append(
                    (
                        log.record.campaign_id,
                        event.iteration,
                        name,
                        acquired,
                        cum[name],
                        None if curve is None else curve[0],
                        None if curve is None else curve[1],
                    )
                )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def _ref_campaign_costs(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        cum = None
        for event in log.iterations:
            payload = event.payload
            spent = payload["spent"]
            cum = spent if cum is None else cum + spent
            rows.append(
                (
                    log.record.campaign_id,
                    event.iteration,
                    spent,
                    cum,
                    payload["limit"],
                    payload["imbalance_before"],
                    payload["imbalance_after"],
                )
            )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _ref_fulfillment_rates(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        fulfillments = log.of("fulfillment")
        n = len(fulfillments)
        requested = effective = delivered = shortfall = failovers = degraded = 0
        cost = None
        for event in fulfillments:
            payload = event.payload
            requested += payload["requested"]
            effective += payload["effective"]
            delivered += payload["delivered"]
            shortfall += payload["shortfall"]
            cost = payload["cost"] if cost is None else cost + payload["cost"]
            failovers += 1 if len(payload["provenance"]) > 1 else 0
            degraded += 1 if payload["status"] != "fulfilled" else 0
        rows.append(
            (
                log.record.campaign_id,
                n,
                requested,
                effective,
                delivered,
                shortfall,
                0.0 if cost is None else cost,
                failovers,
                degraded,
                shortfall * 1.0 / effective if effective > 0 else 0.0,
                failovers * 1.0 / n if n > 0 else 0.0,
            )
        )
    rows.sort(key=lambda row: row[0])
    return rows


def _ref_lane_fairness(logs: list[CampaignLog]) -> list[tuple]:
    lanes: dict[int, dict] = {}
    # Rollup rows come in campaign_id order, matching the SQL window.
    for row in _ref_campaign_rollup(logs):
        _, _, status, priority, budget, iterations, spent = row[:7]
        lane = lanes.setdefault(
            priority,
            {"campaigns": 0, "completed": 0, "iterations": 0,
             "spent": None, "budget": None},
        )
        lane["campaigns"] += 1
        lane["completed"] += 1 if status == "completed" else 0
        lane["iterations"] += iterations
        lane["spent"] = spent if lane["spent"] is None else lane["spent"] + spent
        lane["budget"] = (
            budget if lane["budget"] is None else lane["budget"] + budget
        )
    total_spent = None
    total_budget = None
    for priority in sorted(lanes):  # grand totals accumulate in priority order
        lane = lanes[priority]
        total_spent = (
            lane["spent"] if total_spent is None else total_spent + lane["spent"]
        )
        total_budget = (
            lane["budget"] if total_budget is None else total_budget + lane["budget"]
        )
    rows = []
    for priority in sorted(lanes):
        lane = lanes[priority]
        rows.append(
            (
                priority,
                lane["campaigns"],
                lane["completed"],
                lane["iterations"],
                lane["spent"],
                lane["budget"],
                lane["spent"] / total_spent if total_spent > 0 else 0.0,
                lane["budget"] / total_budget if total_budget > 0 else 0.0,
            )
        )
    return rows


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=False)


def _ref_cache_trends(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        previous: dict[str, str] = {}
        for event in log.iterations:
            curves = event.payload.get("curve_parameters", {})
            if not curves:
                continue
            slices = len(curves)
            reusable = reuses = 0
            for name, curve in curves.items():
                rendered = _canonical(curve)
                if name in previous:
                    reusable += 1
                    if previous[name] == rendered:
                        reuses += 1
                previous[name] = rendered
            rows.append(
                (
                    log.record.campaign_id,
                    event.iteration,
                    slices,
                    reuses,
                    reusable,
                    reuses * 1.0 / reusable if reusable > 0 else 0.0,
                )
            )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _ref_reslice_trends(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        high_water = None
        for event in log.of("reslice"):
            payload = event.payload
            generation = payload["slice_generation"]
            high_water = (
                generation if high_water is None else max(high_water, generation)
            )
            rows.append(
                (
                    log.record.campaign_id,
                    event.seq,
                    event.iteration,
                    generation,
                    high_water,
                    payload["method"],
                    len(payload["slice_names"]),
                    payload["fingerprint"],
                )
            )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _ref_alert_history(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        fired: dict[str, int] = {}  # running per-rule fired count
        for event in log.of("alert"):
            payload = event.payload
            rule = payload.get("rule")
            if payload.get("state") == "fired":
                fired[rule] = fired.get(rule, 0) + 1
            rows.append(
                (
                    log.record.campaign_id,
                    event.seq,
                    event.iteration,
                    rule,
                    payload.get("component"),
                    payload.get("severity"),
                    payload.get("state"),
                    payload.get("value"),
                    payload.get("threshold"),
                    fired.get(rule, 0),
                )
            )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _ref_telemetry_spans(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        for event in log.of("telemetry"):
            payload = event.payload
            rows.append(
                (
                    log.record.campaign_id,
                    event.seq,
                    event.iteration,
                    payload.get("name"),
                    payload.get("span_id"),
                    payload.get("parent_id"),
                    payload.get("status"),
                    payload.get("duration"),
                    (payload.get("attributes") or {}).get("provider"),
                )
            )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _ref_provider_latency(logs: list[CampaignLog]) -> list[tuple]:
    rows: list[tuple] = []
    for log in logs:
        events = [  # in seq order: the SQL sums in seq order too
            e
            for e in log.of("telemetry")
            if e.payload.get("name") == "acquisition.provider"
        ]
        groups: dict[str, dict] = {}
        for event in events:
            payload = event.payload
            provider = (payload.get("attributes") or {}).get("provider")
            group = groups.setdefault(
                provider, {"calls": 0, "total": None, "max": None}
            )
            duration = payload.get("duration")
            group["calls"] += 1
            group["total"] = (
                duration
                if group["total"] is None
                else group["total"] + duration
            )
            group["max"] = (
                duration
                if group["max"] is None
                else max(group["max"], duration)
            )
        ranked = sorted(
            groups.items(), key=lambda item: (-item[1]["total"], item[0])
        )
        for rank, (provider, group) in enumerate(ranked, start=1):
            rows.append(
                (
                    log.record.campaign_id,
                    provider,
                    group["calls"],
                    group["total"],
                    group["total"] / group["calls"],
                    group["max"],
                    rank,
                )
            )
    rows.sort(key=lambda row: (row[0], row[6]))
    return rows


def _ref_campaign_rollup(logs: list[CampaignLog]) -> list[tuple]:
    shortfalls = {row[0]: row[5] for row in _ref_fulfillment_rates(logs)}
    rows: list[tuple] = []
    for log in logs:
        record = log.record
        rows.append(
            (
                record.campaign_id,
                record.name,
                record.status,
                int(record.priority),
                float(record.spec.get("budget", 0.0)),
                len(log.iterations),
                log.spent,
                len(log.of("fulfillment")),
                shortfalls.get(record.campaign_id, 0),
                log.slice_generation,
                len(log.events),
            )
        )
    rows.sort(key=lambda row: row[0])
    return rows


_REFERENCES: dict[str, Callable[[list[CampaignLog]], list[tuple]]] = {
    "campaign_rollup": _ref_campaign_rollup,
    "slice_trajectories": _ref_slice_trajectories,
    "campaign_costs": _ref_campaign_costs,
    "fulfillment_rates": _ref_fulfillment_rates,
    "lane_fairness": _ref_lane_fairness,
    "cache_trends": _ref_cache_trends,
    "reslice_trends": _ref_reslice_trends,
    "alert_history": _ref_alert_history,
    "telemetry_spans": _ref_telemetry_spans,
    "provider_latency": _ref_provider_latency,
}


def reference_rows(
    store: CampaignStore, view: str, campaign_id: str | None = None
) -> list[tuple]:
    """Reference rows for ``view``, ordered exactly like the SQL query."""
    if view not in _REFERENCES:
        raise AnalyticsError(
            f"unknown analytics view {view!r}; expected one of "
            f"{', '.join(sorted(_REFERENCES))}"
        )
    if campaign_id is None:
        return _REFERENCES[view](campaign_logs(store))
    if not VIEW_DEFINITIONS[view].campaign_filterable:
        raise AnalyticsError(f"view {view!r} is global, not per-campaign")
    # A filterable view's rows of one campaign come from its log alone.
    return _REFERENCES[view]([CampaignLog.read(store, campaign_id)])


def assert_consistent(
    store: CampaignStore, analytics: "Analytics | None" = None
) -> dict[str, int]:
    """Compare every SQL view against its Python reference, row-for-row.

    Returns ``{view: row_count}`` on success; raises
    :class:`~repro.utils.exceptions.AnalyticsError` naming the first
    mismatching view, row, and column otherwise.  When ``analytics`` is
    omitted a throw-away in-memory mirror is built from the store.  Each
    campaign's log is read once and shared by all ten reference views.
    """
    from repro.analytics.refresh import Analytics

    owned = analytics is None
    if owned:
        analytics = Analytics(store, path=":memory:")
    try:
        analytics.refresh()
        logs = campaign_logs(store)
        counts: dict[str, int] = {}
        for view, definition in VIEW_DEFINITIONS.items():
            got = analytics.rows(view)
            want = _REFERENCES[view](logs)
            if len(got) != len(want):
                raise AnalyticsError(
                    f"view {view!r}: SQL returned {len(got)} rows, "
                    f"reference computed {len(want)}"
                )
            for index, (g_row, w_row) in enumerate(zip(got, want)):
                for column, g, w in zip(definition.columns, g_row, w_row):
                    if not (g == w):
                        raise AnalyticsError(
                            f"view {view!r} row {index} column {column!r}: "
                            f"SQL {g!r} != reference {w!r}"
                        )
            counts[view] = len(got)
        return counts
    finally:
        if owned:
            analytics.close()
