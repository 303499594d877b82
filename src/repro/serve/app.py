"""The tuner service core: one scheduler + one store behind a thread-safe API.

:class:`TunerService` is the application object the HTTP layer
(:mod:`repro.serve.server`) exposes and the tests drive directly.  It owns

* one :class:`~repro.campaigns.scheduler.CampaignScheduler` running in
  background-pump mode — submissions from any number of HTTP handler
  threads land under the scheduling lock, i.e. exactly at iteration
  boundaries, so serving never perturbs campaign numbers;
* one :class:`~repro.campaigns.store.CampaignStore` (thread-safe since the
  serve PR) holding every campaign's event log and snapshots;
* a per-service :class:`~repro.telemetry.MetricsRegistry` of
  ``serve.<name>`` counters (:data:`SERVE_COUNTERS`), surfaced by
  ``GET /stats``, ``GET /metrics`` and
  :func:`repro.experiments.reporting.server_stats_table`.

Shutdown is a *drain*: :meth:`TunerService.drain` stops the pump, then
checkpoints and pauses every unfinished campaign
(:meth:`Campaign.suspend <repro.campaigns.campaign.Campaign.suspend>`), so
a restarted daemon — or an in-process ``campaign resume`` — continues each
run byte-identically, reusing the PR 4 crash-resume guarantees.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.analytics import Analytics
from repro.campaigns.campaign import Campaign, CampaignSpec, campaign_summary
from repro.campaigns.scheduler import CampaignScheduler, SchedulerTick
from repro.campaigns.store import (
    COMPLETED,
    FAILED,
    PAUSED,
    RESUMABLE,
    CampaignEvent,
    CampaignStore,
    InMemoryStore,
    replay_events,
)
from repro.engine.cache import InMemoryResultCache, ResultCache
from repro.monitor import HealthEvaluator, alert_history
from repro.telemetry import (
    MetricsRegistry,
    get_registry,
    get_tracer,
    merge_snapshots,
    summarize_spans,
)
from repro.utils.exceptions import CampaignError, ConfigurationError

#: Store statuses that end a live event stream (a paused campaign may be
#: resumed later; the client reconnects with its cursor).
TERMINAL_STATUSES = (COMPLETED, FAILED, PAUSED)


#: The daemon's own counters, registered as ``serve.<name>`` instruments and
#: reported (in this order, after ``uptime_seconds``) by ``GET /stats``.
SERVE_COUNTERS = (
    "requests",
    "campaigns_submitted",
    "sse_connections",
    "events_streamed",
    "reports_served",
    "errors",
)


class TunerService:
    """The tuning daemon's application core (transport-agnostic).

    Parameters
    ----------
    store:
        Campaign persistence shared by every client
        (:class:`~repro.campaigns.store.InMemoryStore` by default; pass a
        :class:`~repro.campaigns.store.SqliteStore` for a durable daemon).
    result_cache:
        Content-addressed training cache attached to the shared executor,
        so identical trainings across tenants are served once (an
        :class:`~repro.engine.cache.InMemoryResultCache` by default).
    poll_interval:
        Pump idle wait in seconds (submissions wake it immediately).
    """

    def __init__(
        self,
        store: CampaignStore | None = None,
        result_cache: ResultCache | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        self.store = store if store is not None else InMemoryStore()
        self.scheduler = CampaignScheduler(
            store=self.store,
            result_cache=(
                result_cache if result_cache is not None else InMemoryResultCache()
            ),
        )
        # Per-instance rather than process-wide, so two services in one
        # process (or test) never share counts; one registry lock makes a
        # snapshot atomic, and ``GET /metrics`` merges it with the
        # process-wide registry.
        self.metrics = MetricsRegistry()
        for name in SERVE_COUNTERS:
            self.metrics.counter(f"serve.{name}")
        self.started_at = time.time()
        self.poll_interval = float(poll_interval)
        self._activity = threading.Condition()
        self._tick_seq = 0
        self._last_ticks: dict[str, tuple[int, dict[str, Any]]] = {}
        self._closing = threading.Event()
        self._analytics: Analytics | None = None
        self._analytics_lock = threading.Lock()
        self._health = HealthEvaluator()
        self._health_lock = threading.Lock()
        self.scheduler.add_progress_callback(self._on_tick)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "TunerService":
        """Start the background scheduler pump; returns self."""
        self.scheduler.start_pump(poll_interval=self.poll_interval)
        return self

    @property
    def closing(self) -> bool:
        """True once a drain has begun (SSE streams end promptly)."""
        return self._closing.is_set()

    def drain(self) -> dict[str, Any]:
        """Graceful shutdown: stop the pump, checkpoint + pause survivors.

        Returns a summary (``suspended`` campaign ids and final stats); the
        store stays open so callers can still read state before
        :meth:`close`.
        """
        self._closing.set()
        self._notify()
        suspended = self.scheduler.drain()
        return {"suspended": suspended, "stats": self._served_counts()}

    def close(self) -> None:
        """Drain (if not already) and release the store."""
        if not self._closing.is_set():
            self.drain()
        with self._analytics_lock:
            if self._analytics is not None:
                self._analytics.close()
                self._analytics = None
        self.store.close()

    # -- submissions and control -------------------------------------------------
    def submit(self, data: Mapping[str, Any]) -> dict[str, Any]:
        """Register the campaign a JSON spec describes; idempotent.

        Unknown spec fields are rejected (a typo'd knob silently ignored is
        a determinism bug waiting to happen).  Re-submitting an identical
        spec deduplicates by content fingerprint: a completed campaign
        replays its stored result, an unfinished one keeps running.
        """
        if self._closing.is_set():
            raise CampaignError("the service is draining; submissions are closed")
        known = {f.name for f in CampaignSpec.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        spec = CampaignSpec.from_dict(data)
        try:
            campaign = self.scheduler.add(spec)
            reused = campaign.reused
        except CampaignError as error:
            if "already scheduled" not in str(error):
                raise
            # Same fingerprint submitted twice while running: point the
            # client at the live campaign instead of failing the request.
            # The stored record is looked up by fingerprint because a
            # renamed-but-identical spec deduplicates onto the original id.
            record = self.store.find_fingerprint(spec.fingerprint())
            campaign = (
                None if record is None else self.scheduler.find(record.campaign_id)
            )
            if campaign is None:  # pragma: no cover - defensive
                raise
            reused = True
        self.metrics.counter("serve.campaigns_submitted").inc()
        self._notify()
        return {
            "campaign_id": campaign.campaign_id,
            "name": campaign.spec.name,
            "reused": reused,
            "done": campaign.is_done,
            "status": self.store.get_campaign(campaign.campaign_id).status,
        }

    def resume_all(self) -> list[str]:
        """Register every unfinished stored campaign; returns their ids."""
        resumed = []
        for record in self.store.list_campaigns():
            if record.status not in RESUMABLE:
                continue
            if self.scheduler.find(record.campaign_id) is None:
                self.scheduler.add_existing(record.campaign_id)
            else:
                self.scheduler.resume_campaign(record.campaign_id)
            resumed.append(record.campaign_id)
        self._notify()
        return resumed

    def pause(self, campaign_id: str) -> dict[str, Any]:
        """Checkpoint + pause one campaign (404-mapped when unknown)."""
        self.store.get_campaign(campaign_id)  # raises for unknown ids
        paused = self.scheduler.pause_campaign(campaign_id)
        self._notify()
        return {"campaign_id": campaign_id, "paused": paused}

    def resume(self, campaign_id: str) -> dict[str, Any]:
        """(Re)activate one stored or paused campaign."""
        campaign = self.scheduler.resume_campaign(campaign_id)
        self._notify()
        return {
            "campaign_id": campaign_id,
            "done": campaign.is_done,
            "status": self.store.get_campaign(campaign_id).status,
        }

    # -- read side ---------------------------------------------------------------
    def list_campaigns(self) -> list[dict[str, Any]]:
        """One progress summary per stored campaign, in creation order."""
        return [
            campaign_summary(self.store, record.campaign_id)
            for record in self.store.list_campaigns()
        ]

    def show(self, campaign_id: str) -> dict[str, Any]:
        """Record + replayed progress of one campaign (summary + spec)."""
        summary = campaign_summary(self.store, campaign_id)
        summary["spec"] = dict(self.store.get_campaign(campaign_id).spec)
        return summary

    def result(self, campaign_id: str) -> dict[str, Any]:
        """The final :class:`~repro.core.plan.TuningResult` as a JSON dict.

        Raises :class:`CampaignError` until the campaign completed (the
        HTTP layer maps it to 409, so polling clients can tell "not yet"
        from "no such campaign").
        """
        record = self.store.get_campaign(campaign_id)
        if record.status != COMPLETED:
            raise CampaignError(
                f"campaign {campaign_id!r} has not completed "
                f"(status: {record.status})"
            )
        campaign = self.scheduler.find(campaign_id)
        if campaign is None or not campaign.is_done:
            campaign = Campaign.resume(self.store, campaign_id)
        return campaign.result().to_dict()

    def log(self, campaign_id: str) -> list[dict[str, Any]]:
        """The campaign's replayed (generation-collapsed) event log."""
        events = replay_events(self.store.events(campaign_id))
        return [event.to_dict() for event in events]

    def events_since(self, campaign_id: str, after: int) -> list[CampaignEvent]:
        """Replayed events with ``seq > after`` (the SSE catch-up query).

        Replay collapses duplicate iterations across resume generations, so
        a client reconnecting with a cursor never sees an iteration twice —
        the replayed+live sequence equals
        :func:`~repro.campaigns.store.replay_events` of the finished log.
        Use once per stream; the live tail should poll the cheaper
        :meth:`events_after`.
        """
        events = replay_events(self.store.events(campaign_id))
        return [event for event in events if event.seq > after]

    def events_after(self, campaign_id: str, after: int) -> list[CampaignEvent]:
        """Raw events with ``seq > after`` (the cheap live-tail poll).

        No generation collapse: past the initial catch-up everything newer
        than the cursor is a live append, and any event a *newer* generation
        re-executes supersedes only events the client already received —
        exactly what the replayed view would stream too.  The filter is
        pushed into the store query, so an idle poll costs O(new events),
        not O(log).
        """
        return self.store.events(campaign_id, after=after)

    def status(self, campaign_id: str) -> str:
        """The store's lifecycle status for ``campaign_id``."""
        return self.store.get_campaign(campaign_id).status

    def report(self, kind: str, campaign_id: str | None = None) -> dict[str, Any]:
        """A ``repro.report/1`` analytics payload over the live store.

        Backs ``GET /reports/summary`` and ``GET /campaigns/<id>/report``.
        The analytics mirror is created lazily next to the store (in memory
        for an :class:`InMemoryStore`) and refreshed incrementally before
        every report, so a poll between scheduler ticks costs O(new
        events).  The payload equals what ``cli report <kind> --json``
        prints for the same store — one builder serves both surfaces.
        """
        if campaign_id is not None:
            self.store.get_campaign(campaign_id)  # 404-mapped when unknown
        with self._analytics_lock:
            if self._analytics is None:
                self._analytics = Analytics(self.store)
            self._analytics.refresh()
            payload = self._analytics.report(kind, campaign_id)
        self.metrics.counter("serve.reports_served").inc()
        return payload

    # -- live-activity plumbing (SSE) --------------------------------------------
    def _on_tick(self, tick: SchedulerTick) -> None:
        with self._activity:
            self._tick_seq += 1
            self._last_ticks[tick.campaign_id] = (
                self._tick_seq,
                {
                    "campaign_id": tick.campaign_id,
                    "name": tick.name,
                    "priority": tick.priority,
                    "iteration": tick.iteration,
                    "spent": tick.spent,
                    "budget": tick.budget,
                    "done": tick.done,
                    "slice_generation": tick.slice_generation,
                },
            )
            self._activity.notify_all()

    def _notify(self) -> None:
        with self._activity:
            self._activity.notify_all()

    def wait_for_activity(self, timeout: float) -> None:
        """Block until any scheduler tick / submission lands (or timeout)."""
        with self._activity:
            self._activity.wait(timeout)

    def last_tick(self, campaign_id: str) -> tuple[int, dict[str, Any]] | None:
        """The newest :class:`SchedulerTick` for a campaign, with its seq."""
        with self._activity:
            return self._last_ticks.get(campaign_id)

    # -- stats -------------------------------------------------------------------
    def uptime_seconds(self) -> float:
        """Seconds since the service was built (rounded to milliseconds)."""
        return round(time.time() - self.started_at, 3)

    def _served_counts(self) -> dict[str, Any]:
        """Uptime plus every :data:`SERVE_COUNTERS` value, from one snapshot."""
        counters = self.metrics.snapshot()["counters"]
        payload: dict[str, Any] = {"uptime_seconds": self.uptime_seconds()}
        for name in SERVE_COUNTERS:
            payload[name] = counters[f"serve.{name}"]
        return payload

    def server_stats(self) -> dict[str, Any]:
        """Everything ``GET /stats`` reports (health + workload + cache)."""
        by_status: dict[str, int] = {}
        for record in self.store.list_campaigns():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        total = sum(by_status.values())
        active = total - by_status.get(COMPLETED, 0) - by_status.get(FAILED, 0)
        stats = self._served_counts()
        stats.update(
            {
                "scheduler_steps": self.scheduler.steps,
                "pump_running": self.scheduler.pump_running,
                "pump_errors": len(self.scheduler.errors),
                "campaigns_total": total,
                "campaigns_active": active,
                "campaigns_completed": by_status.get(COMPLETED, 0),
                "campaigns_paused": by_status.get(PAUSED, 0),
                "campaigns_failed": by_status.get(FAILED, 0),
            }
        )
        cache = self.scheduler.executor.cache
        if cache is not None:
            # One snapshot: a disk-backed cache computes its stats per read
            # (aggregated across every process sharing the file), so four
            # separate reads could straddle a concurrent update.
            cache_stats = dict(cache.stats_snapshot())
            cache_stats["persistent"] = hasattr(cache, "tier_stats")
            stats["cache"] = cache_stats
        return stats

    def metrics_snapshot(self) -> dict[str, Any]:
        """One merged metrics snapshot: process registry + server counters.

        Backs ``GET /metrics``.  The process-wide registry carries the
        engine/acquisition/session instruments; the service's own
        :attr:`metrics` registry carries the HTTP counters.
        """
        return merge_snapshots(get_registry().snapshot(), self.metrics.snapshot())

    def health_deep(self) -> dict[str, Any]:
        """Per-component health verdicts (the ``GET /health/deep`` body).

        Folds one merged metrics snapshot into the service-scope rules
        (windows keyed by evaluation count, so repeated identical polls
        are deterministic) and combines the result with the durable alert
        state of non-terminal campaigns and the daemon's own drain/pump
        flags.  The HTTP layer returns 503 while ``status`` is
        ``critical`` — the admission-control signal.
        """
        pump_error = None
        if self.scheduler.errors:
            failed_id, exc = self.scheduler.errors[-1]
            pump_error = f"{failed_id}: {exc}"
        with self._health_lock:
            self._health.observe(self.metrics_snapshot())
            return self._health.health(
                store=self.store,
                serve_state={
                    "draining": self.closing,
                    "pump_error": pump_error,
                },
            )

    def alerts(self, campaign_id: str | None = None) -> dict[str, Any]:
        """The durable, replayed alert history (``GET /alerts``).

        Exactly the rows ``cli monitor alerts`` prints for the same
        store; ``campaign_id`` narrows to one campaign (404-mapped when
        unknown).
        """
        if campaign_id is not None:
            self.store.get_campaign(campaign_id)  # 404-mapped when unknown
        rows = alert_history(self.store, campaign_id)
        return {"count": len(rows), "alerts": rows}

    def span_summary(self, campaign_id: str) -> dict[str, Any]:
        """Aggregate a campaign's persisted telemetry spans by span name.

        Backs ``GET /campaigns/<id>/spans``.  Reads the durable
        ``telemetry`` events (written only while a live tracer is
        installed), so the summary survives daemon restarts alongside the
        campaign itself.
        """
        self.store.get_campaign(campaign_id)  # 404-mapped when unknown
        total, spans = summarize_spans(
            event.payload
            for event in self.store.events(campaign_id, kinds=("telemetry",))
        )
        return {
            "campaign_id": campaign_id,
            "tracing": get_tracer().enabled,
            "span_count": total,
            "spans": spans,
        }
