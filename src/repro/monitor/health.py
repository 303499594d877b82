"""Rolling-window rule evaluation over event logs and metric snapshots.

Two evaluators share the :class:`~repro.monitor.rules.AlertRule` vocabulary:

:class:`CampaignMonitor`
    Fed by a running :class:`~repro.campaigns.campaign.Campaign` with each
    of its *own durable events* as it appends them, never polled —
    fulfillment summaries and persisted telemetry spans accumulate, and
    every ``iteration`` event triggers one evaluation of the campaign-scope
    rules.  Transitions (fired/resolved) come back as :class:`Alert`
    records which the campaign appends as ``alert`` events right behind
    the ``iteration``.  The fold is a pure function of the event log
    (windows keyed by iteration, never wall-clock), so replaying the log
    through a fresh monitor reproduces the exact alert sequence — which is
    also how crash-resume warms the monitor back up to its pre-crash state.

:class:`HealthEvaluator`
    Process-wide.  Folds successive :class:`~repro.telemetry.MetricsRegistry`
    snapshots through the service-scope rules (windows keyed by an
    evaluation counter), and combines the result with the durable alert
    state of non-terminal campaigns into per-component health verdicts:
    ``ok`` / ``degraded`` / ``critical`` for each of ``engine``, ``cache``,
    ``acquisition``, ``scheduler``, ``serve``.  The daemon's
    ``GET /health/deep`` returns 503 while any component is critical.

Alert payloads never embed event seqs or generations — those differ
across crash-resume generations — only rule identity, iteration index,
and the windowed value, so a resumed run re-appends byte-identical
``alert`` events and generation collapse yields one consistent history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.campaigns.store import (
    COMPLETED,
    FAILED,
    PAUSED,
    CampaignEvent,
    CampaignLog,
    CampaignRecord,
    CampaignStore,
)
from repro.monitor.rules import (
    COMPONENTS,
    AlertRule,
    campaign_rules,
    service_rules,
)
from repro.monitor.windows import RollingWindow

__all__ = [
    "STATES",
    "Alert",
    "CampaignMonitor",
    "HealthEvaluator",
    "alert_history",
    "worst_status",
]

#: Health states, healthiest first; a component's verdict is the worst
#: state among its active alerts.
STATES = ("ok", "degraded", "critical")

#: Minimum scheduler steps before lane-share signals are meaningful.
_MIN_LANE_STEPS = 20

#: Fulfillment statuses that never count as provider trouble.
_BENIGN_STATUSES = ("fulfilled", "skipped")


def worst_status(states: Iterable[str]) -> str:
    """The most severe of ``states`` (``ok`` when empty)."""
    worst = 0
    for state in states:
        worst = max(worst, STATES.index(state))
    return STATES[worst]


@dataclass(frozen=True)
class Alert:
    """One rule transition: a rule started (or stopped) breaching.

    ``value`` is the rolling-window mean that crossed (or re-crossed) the
    threshold; ``iteration`` is the window index of the transition — an
    iteration number for campaign-scope rules (-1 for resolutions emitted
    at campaign completion), an evaluation counter for service-scope
    rules.  Deliberately free of seqs, generations, and timestamps: the
    payload must be byte-identical when a resumed run re-evaluates the
    same iteration.
    """

    rule: str
    component: str
    severity: str
    state: str  # "fired" | "resolved"
    value: float
    threshold: float
    window: int
    iteration: int
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "component": self.component,
            "severity": self.severity,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "window": self.window,
            "iteration": self.iteration,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Alert":
        return cls(
            rule=str(data["rule"]),
            component=str(data["component"]),
            severity=str(data["severity"]),
            state=str(data["state"]),
            value=float(data["value"]),
            threshold=float(data["threshold"]),
            window=int(data["window"]),
            iteration=int(data["iteration"]),
            message=str(data.get("message", "")),
        )


def _transition(
    rule: AlertRule, state: str, value: float, iteration: int, message: str
) -> Alert:
    return Alert(
        rule=rule.name,
        component=rule.component,
        severity=rule.severity,
        state=state,
        value=value,
        threshold=rule.threshold,
        window=rule.window,
        iteration=iteration,
        message=message,
    )


class _RuleState:
    """Shared fired/resolved bookkeeping for one rule's window."""

    __slots__ = ("rule", "window", "active", "resolved_at")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.window = RollingWindow(rule.window)
        self.active = False
        self.resolved_at: int | None = None

    def step(self, index: int, value: float | None) -> Alert | None:
        """Push one sample (when present) and return any transition.

        ``None`` samples leave the window untouched and emit nothing —
        no new evidence, no state change.  Re-firing within ``debounce``
        indices of the last resolve is suppressed (anti-flap).
        """
        rule = self.rule
        if value is None:
            return None
        self.window.push(index, value)
        if len(self.window) < rule.min_samples:
            return None
        mean = self.window.mean()
        breaching = rule.breaches(mean)
        if breaching and not self.active:
            if (
                self.resolved_at is not None
                and index - self.resolved_at < rule.debounce
            ):
                return None
            self.active = True
            comparison = ">" if rule.predicate == "gt" else "<"
            return _transition(
                rule, "fired", mean, index,
                f"{rule.signal} {mean:.6g} {comparison} {rule.threshold:g} "
                f"over the last {len(self.window)} sample(s)",
            )
        if not breaching and self.active:
            self.active = False
            self.resolved_at = index
            return _transition(
                rule, "resolved", mean, index,
                f"{rule.signal} recovered to {mean:.6g}",
            )
        return None

    def close(self, index: int, message: str) -> Alert | None:
        """Force-resolve an active alert (campaign completion)."""
        if not self.active:
            return None
        self.active = False
        self.resolved_at = index
        return _transition(
            self.rule, "resolved", self.window.mean(), index, message
        )


class CampaignMonitor:
    """Folds one campaign's durable events into alert transitions.

    Feed it events in seq order via :meth:`fold`; it buffers fulfillment
    and telemetry payloads and evaluates every campaign-scope rule once
    per ``iteration`` event (the per-iteration sample definitions are in
    :meth:`_samples`).  The caller persists returned alerts; on resume,
    fold the replayed pre-snapshot history first and discard the returned
    alerts — they were already persisted by the earlier generation.
    """

    def __init__(
        self, campaign_id: str, rules: Iterable[AlertRule] | None = None
    ) -> None:
        self.campaign_id = campaign_id
        self.rules = tuple(rules if rules is not None else campaign_rules())
        self._states = {rule.name: _RuleState(rule) for rule in self.rules}
        self._fulfillments: list[Mapping[str, Any]] = []
        self._spans: list[Mapping[str, Any]] = []

    @property
    def active(self) -> tuple[str, ...]:
        """Names of currently firing rules, sorted."""
        return tuple(
            sorted(name for name, st in self._states.items() if st.active)
        )

    def fold(self, events: Iterable[CampaignEvent]) -> list[Alert]:
        """Consume events in seq order; returns transitions to persist.

        ``alert`` events are skipped (they are this monitor's own output),
        so the full replayed log can be folded without pre-filtering.
        """
        out: list[Alert] = []
        for event in events:
            if event.kind == "fulfillment":
                self._fulfillments.append(event.payload)
            elif event.kind == "telemetry":
                self._spans.append(event.payload)
            elif event.kind == "iteration":
                out.extend(self._evaluate(int(event.iteration)))
        return out

    def warmup(
        self, events: Iterable[CampaignEvent], up_to_iteration: int
    ) -> None:
        """Rebuild pre-crash window state from the replayed history.

        Only events from iterations the resumed session will *not*
        re-execute are folded (``iteration <= up_to_iteration``, plus the
        out-of-loop ``-1`` / ``min_slice_size`` events that precede the
        loop); the re-executed tail re-derives its samples live, so the
        resumed monitor emits byte-identical alerts for it.
        """
        retained = [
            event
            for event in events
            if event.kind != "alert" and event.iteration <= up_to_iteration
        ]
        self.fold(retained)  # transitions were persisted by the prior gen

    def finalize(self) -> list[Alert]:
        """Resolve every still-active alert at campaign completion.

        Emitted at iteration ``-1`` (out-of-loop, like the ``completed``
        event) so completed campaigns never hold components degraded.
        """
        out = []
        for rule in self.rules:
            alert = self._states[rule.name].close(
                -1, "resolved at campaign completion"
            )
            if alert is not None:
                out.append(alert)
        return out

    # -- sample derivation -------------------------------------------------------
    @staticmethod
    def _troubled(summary: Mapping[str, Any]) -> bool:
        """Whether one fulfillment shows failover/retry/shortfall trouble."""
        status = summary.get("status")
        if status == "skipped":
            return False
        provenance = summary.get("provenance") or ()
        return (
            len(provenance) > 1
            or int(summary.get("rounds", 1)) > 1
            or status not in _BENIGN_STATUSES
        )

    def _samples(self) -> dict[str, float]:
        """Per-iteration signal values from the buffered payloads.

        All ratios of integers taken straight from event payloads, so the
        floats are identical across executors, stores, and replay.
        """
        samples: dict[str, float] = {}
        if self._fulfillments:
            troubled = sum(
                1 for item in self._fulfillments if self._troubled(item)
            )
            samples["failover_rate"] = troubled / len(self._fulfillments)
            effective = sum(
                int(item.get("effective", 0)) for item in self._fulfillments
            )
            shortfall = sum(
                int(item.get("shortfall", 0)) for item in self._fulfillments
            )
            if effective > 0:
                samples["shortfall_rate"] = shortfall / effective
        if self._spans:
            errors = sum(
                1 for span in self._spans if span.get("status") == "error"
            )
            samples["span_error_rate"] = errors / len(self._spans)
        return samples

    def _evaluate(self, iteration: int) -> list[Alert]:
        samples = self._samples()
        self._fulfillments = []
        self._spans = []
        out = []
        for rule in self.rules:
            alert = self._states[rule.name].step(
                iteration, samples.get(rule.signal)
            )
            if alert is not None:
                out.append(alert)
        return out


def alert_history(
    store: CampaignStore, campaign_id: str | None = None
) -> list[dict[str, Any]]:
    """The replayed durable alert sequence, annotated per campaign.

    One row per ``alert`` event after generation collapse, in seq order —
    the payload plus ``campaign_id``/``seq``/``generation``.  This is the
    CLI/daemon surface; the ``alert_history`` analytics view adds a
    running ``fired_count`` on top of the same rows.
    """
    records = store.list_campaigns()
    if campaign_id is not None:
        records = [r for r in records if r.campaign_id == campaign_id]
    return [row for record in records for row in _alert_rows(store, record)]


def _alert_rows(
    store: CampaignStore, record: CampaignRecord
) -> list[dict[str, Any]]:
    """One campaign's :func:`alert_history` rows, from its alert-only log."""
    return [
        {
            "campaign_id": record.campaign_id,
            "seq": event.seq,
            "generation": event.generation,
            **event.payload,
        }
        for event in CampaignLog.read(store, record, kinds=("alert",)).events
    ]


def alert_payload(
    store: CampaignStore, campaign_id: str | None = None
) -> dict[str, Any]:
    """:func:`alert_history` with its row count (``GET /alerts``, ``monitor alerts``).

    ``campaign_id`` narrows to one campaign; an unknown id raises the
    store's :class:`~repro.utils.exceptions.CampaignError`.
    """
    if campaign_id is not None:
        store.get_campaign(campaign_id)
    rows = alert_history(store, campaign_id)
    return {"count": len(rows), "alerts": rows}


def _active_campaign_alerts(
    store: CampaignStore,
) -> list[dict[str, Any]]:
    """Unresolved durable alerts of campaigns that are still progressing.

    Terminal campaigns (completed/failed/paused) drop out, so service
    health recovers once a troubled campaign finishes — matching the
    monitor's own completion-time resolutions.
    """
    active = []
    for record in store.list_campaigns():
        if record.status in (COMPLETED, FAILED, PAUSED):
            continue
        last: dict[str, dict[str, Any]] = {}
        for row in _alert_rows(store, record):
            last[str(row.get("rule"))] = row
        for rule, row in sorted(last.items()):
            if row.get("state") == "fired":
                active.append(row)
    return active


class HealthEvaluator:
    """Per-component health from metric snapshots plus durable alerts.

    :meth:`observe` folds one :class:`~repro.telemetry.MetricsRegistry`
    snapshot through the service-scope rules — windows keyed by a
    monotonic evaluation counter, never wall-clock, so feeding the same
    snapshot sequence always yields the same verdicts.  :meth:`health`
    combines the live service-rule state, the durable alert state of
    non-terminal campaigns in a store, and the daemon's drain/pump flags
    into the ``GET /health/deep`` document.
    """

    def __init__(self, rules: Iterable[AlertRule] | None = None) -> None:
        self.rules = tuple(rules if rules is not None else service_rules())
        self._states = {rule.name: _RuleState(rule) for rule in self.rules}
        self._evaluations = 0
        self._previous: dict[str, int] = {}

    @property
    def evaluations(self) -> int:
        """How many snapshots have been folded so far."""
        return self._evaluations

    def observe(self, snapshot: Mapping[str, Any]) -> list[Alert]:
        """Fold one metrics snapshot; returns service-rule transitions."""
        counters = {
            key: int(value)
            for key, value in snapshot.get("counters", {}).items()
        }
        samples = self._service_samples(counters)
        index = self._evaluations
        self._evaluations += 1
        self._previous = counters
        out = []
        for rule in self.rules:
            alert = self._states[rule.name].step(
                index, samples.get(rule.signal)
            )
            if alert is not None:
                out.append(alert)
        return out

    def _service_samples(
        self, counters: Mapping[str, int]
    ) -> dict[str, float]:
        samples: dict[str, float] = {}
        # Cache hit rate over the lookups since the previous snapshot —
        # sampled only once the cache has ever served a hit, so a fresh
        # workload of legitimately unique trainings (all misses, nothing
        # to collapse *from*) never trips the collapse rule.
        hits = counters.get("engine.cache_hits", 0) - self._previous.get(
            "engine.cache_hits", 0
        )
        misses = counters.get("engine.cache_misses", 0) - self._previous.get(
            "engine.cache_misses", 0
        )
        if self._previous.get("engine.cache_hits", 0) > 0 and hits + misses > 0:
            samples["cache_hit_rate"] = hits / (hits + misses)
        # Coldest lane's cumulative share of scheduler steps; only
        # meaningful once several lanes have enough history to compare.
        lanes = {
            key: value
            for key, value in counters.items()
            if key.startswith("scheduler.lane_steps{")
        }
        total = sum(lanes.values())
        if len(lanes) >= 2 and total >= _MIN_LANE_STEPS:
            samples["lane_min_share"] = min(lanes.values()) / total
        return samples

    def service_alerts(self) -> list[Alert]:
        """Currently firing service-scope alerts, in rule order."""
        out = []
        for rule in self.rules:
            state = self._states[rule.name]
            if state.active:
                out.append(
                    _transition(
                        rule,
                        "fired",
                        state.window.mean(),
                        state.window.last_index or 0,
                        f"{rule.signal} breaching across recent snapshots",
                    )
                )
        return out

    def health(
        self,
        store: CampaignStore | None = None,
        serve_state: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The per-component health document.

        ``serve_state`` carries the daemon's own flags (``draining``,
        ``pump_error``); omit it for offline ``monitor status`` runs.
        """
        components: dict[str, dict[str, Any]] = {
            name: {"status": "ok", "alerts": []} for name in COMPONENTS
        }

        def attach(component: str, severity: str, alert: Mapping[str, Any]):
            slot = components[component]
            slot["alerts"].append(dict(alert))
            slot["status"] = worst_status((slot["status"], severity))

        for alert in self.service_alerts():
            attach(alert.component, alert.severity, alert.to_dict())
        if store is not None:
            for row in _active_campaign_alerts(store):
                component = str(row.get("component", "engine"))
                if component not in components:
                    component = "engine"
                attach(component, str(row.get("severity", "degraded")), row)
        if serve_state is not None:
            pump_error = serve_state.get("pump_error")
            if pump_error:
                attach(
                    "serve",
                    "critical",
                    {
                        "rule": "pump_failure",
                        "component": "serve",
                        "severity": "critical",
                        "state": "fired",
                        "message": str(pump_error),
                    },
                )
            elif serve_state.get("draining"):
                attach(
                    "serve",
                    "degraded",
                    {
                        "rule": "draining",
                        "component": "serve",
                        "severity": "degraded",
                        "state": "fired",
                        "message": "daemon is draining; no new submissions",
                    },
                )
        overall = worst_status(
            slot["status"] for slot in components.values()
        )
        return {
            "status": overall,
            "components": components,
            "evaluations": self._evaluations,
        }
