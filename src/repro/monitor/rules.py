"""Declarative SLO alert rules and their registry.

An :class:`AlertRule` names a *signal* (a derived ratio the evaluators
compute from durable events or metric snapshots), a predicate over a
rolling window of that signal, and what a breach means: which component
degrades, how severely, and how long to hold off before re-firing after a
recovery (debounce, in window indices — iterations for campaign-scope
rules, evaluation steps for service-scope ones; never wall-clock).

Rules come in two scopes:

``campaign``
    Evaluated by :class:`~repro.monitor.health.CampaignMonitor` from the
    campaign's own event log, once per ``iteration`` event.  Transitions
    are persisted as durable ``alert`` events, so the alert sequence is
    part of the replayable history and byte-identical across executors,
    store backends, and crash-resume.

``service``
    Evaluated by :class:`~repro.monitor.health.HealthEvaluator` from
    successive :class:`~repro.telemetry.MetricsRegistry` snapshots —
    process-wide signals (shared cache, scheduler lanes) that no single
    campaign owns.  These shape live health verdicts only and are never
    persisted.

Rules live in a :class:`~repro.utils.registry.Registry`, so operators can
register their own next to the built-ins::

    from repro.monitor import AlertRule, register_rule

    register_rule(AlertRule(
        name="reslice_churn",
        component="engine",
        scope="campaign",
        signal="failover_rate",
        predicate="gt",
        threshold=0.9,
        window=5,
        min_samples=3,
        severity="degraded",
        debounce=3,
        description="almost every recent iteration needed provider failover",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry

__all__ = [
    "COMPONENTS",
    "PREDICATES",
    "SCOPES",
    "SEVERITIES",
    "AlertRule",
    "available_rules",
    "campaign_rules",
    "get_rule",
    "is_rule",
    "register_rule",
    "rule_descriptions",
    "service_rules",
    "unregister_rule",
]

#: Components a rule can degrade (the axes of ``GET /health/deep``).
COMPONENTS = ("engine", "cache", "acquisition", "scheduler", "serve")

#: Alert severities, mildest first.  ``critical`` flips ``/health/deep``
#: to 503; ``degraded`` keeps it 200 but marks the component.
SEVERITIES = ("degraded", "critical")

#: Where a rule's signal comes from (see module docstring).
SCOPES = ("campaign", "service")

#: Supported breach predicates: signal strictly above / below threshold.
PREDICATES = ("gt", "lt")


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule.

    Attributes
    ----------
    name:
        Registry key (case-insensitive, unique).
    component:
        Which :data:`COMPONENTS` entry a breach degrades.
    scope:
        ``"campaign"`` (event-log driven, persisted) or ``"service"``
        (metric-snapshot driven, live only).
    signal:
        Name of the derived sample the evaluator feeds the rule — e.g.
        ``failover_rate``; multiple rules may watch one signal.
    predicate / threshold:
        The rule breaches when the rolling-window mean of the signal is
        strictly ``gt``/``lt`` the threshold.
    window:
        Rolling-window length in samples (iterations / evaluations).
    min_samples:
        Evaluate only once the window holds at least this many samples,
        so a single noisy iteration cannot trip an alert.
    severity:
        One of :data:`SEVERITIES`.
    debounce:
        After a resolve at index ``i``, suppress re-firing until index
        ``i + debounce`` — anti-flap hysteresis in window indices.
    description:
        One-line summary shown by ``cli monitor rules``.
    """

    name: str
    component: str
    scope: str
    signal: str
    predicate: str
    threshold: float
    window: int
    min_samples: int
    severity: str
    debounce: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown component {self.component!r}; "
                f"expected one of {', '.join(COMPONENTS)}"
            )
        if self.scope not in SCOPES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown scope {self.scope!r}; "
                f"expected one of {', '.join(SCOPES)}"
            )
        if self.predicate not in PREDICATES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown predicate {self.predicate!r}; "
                f"expected one of {', '.join(PREDICATES)}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown severity {self.severity!r}; "
                f"expected one of {', '.join(SEVERITIES)}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"rule {self.name!r}: window must be >= 1, got {self.window}"
            )
        if not 1 <= self.min_samples <= self.window:
            raise ConfigurationError(
                f"rule {self.name!r}: min_samples must be in "
                f"[1, window={self.window}], got {self.min_samples}"
            )
        if self.debounce < 0:
            raise ConfigurationError(
                f"rule {self.name!r}: debounce must be >= 0, "
                f"got {self.debounce}"
            )

    def breaches(self, value: float) -> bool:
        """Whether ``value`` violates the rule's predicate."""
        if self.predicate == "gt":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> dict:
        """JSON-friendly view (``cli monitor rules --json``)."""
        return {
            "name": self.name,
            "component": self.component,
            "scope": self.scope,
            "signal": self.signal,
            "predicate": self.predicate,
            "threshold": self.threshold,
            "window": self.window,
            "min_samples": self.min_samples,
            "severity": self.severity,
            "debounce": self.debounce,
            "description": self.description,
        }


#: Every registered rule; the built-ins are registered below.
RULES: Registry[AlertRule] = Registry("alert rule")

unregister_rule = RULES.unregister
get_rule = RULES.get
is_rule = RULES.__contains__
available_rules = RULES.names
rule_descriptions = RULES.descriptions


def register_rule(rule: AlertRule, *, overwrite: bool = False) -> AlertRule:
    """Register ``rule`` under its (case-insensitive) name.

    The stored rule carries the normalised name.  Raises
    :class:`~repro.utils.exceptions.ConfigurationError` when the name is
    taken and ``overwrite`` is false, so typos don't silently shadow
    built-ins.
    """
    name = Registry.key(rule.name)
    if rule.name != name:
        rule = replace(rule, name=name)
    return RULES.add(
        name, rule, description=rule.description, overwrite=overwrite
    )


def campaign_rules() -> tuple[AlertRule, ...]:
    """Campaign-scope rules in deterministic (sorted-name) order."""
    return tuple(
        rule for rule in map(get_rule, available_rules())
        if rule.scope == "campaign"
    )


def service_rules() -> tuple[AlertRule, ...]:
    """Service-scope rules in deterministic (sorted-name) order."""
    return tuple(
        rule for rule in map(get_rule, available_rules())
        if rule.scope == "service"
    )


# -- built-in rules ------------------------------------------------------------
#
# Campaign scope: signals derived from durable events, one sample per
# iteration (see CampaignMonitor for the exact sample definitions).

register_rule(AlertRule(
    name="provider_failover",
    component="acquisition",
    scope="campaign",
    signal="failover_rate",
    predicate="gt",
    threshold=0.4,
    window=3,
    min_samples=2,
    severity="degraded",
    debounce=2,
    description=(
        "most recent fulfillments needed failover, retries, or fell short "
        "(provenance > 1 provider, rounds > 1, or partial/empty status)"
    ),
))

register_rule(AlertRule(
    name="fulfillment_shortfall",
    component="acquisition",
    scope="campaign",
    signal="shortfall_rate",
    predicate="gt",
    threshold=0.2,
    window=3,
    min_samples=2,
    severity="critical",
    debounce=2,
    description=(
        "providers delivered well under the effective request over the "
        "recent window (undelivered / requested examples > 20%)"
    ),
))

register_rule(AlertRule(
    name="span_error_rate",
    component="engine",
    scope="campaign",
    signal="span_error_rate",
    predicate="gt",
    threshold=0.05,
    window=3,
    min_samples=1,
    severity="critical",
    debounce=2,
    description=(
        "persisted telemetry spans report errors (traced blocks raising) "
        "in the recent window; only evaluated when tracing is enabled"
    ),
))

# Service scope: signals derived from successive metrics-registry
# snapshots (see HealthEvaluator.observe for the exact sample definitions).

register_rule(AlertRule(
    name="cache_hit_collapse",
    component="cache",
    scope="service",
    signal="cache_hit_rate",
    predicate="lt",
    threshold=0.1,
    window=5,
    min_samples=3,
    severity="degraded",
    debounce=5,
    description=(
        "the shared result cache stopped serving hits "
        "(engine.cache_hits / lookups under 10% across recent snapshots)"
    ),
))

register_rule(AlertRule(
    name="lane_starvation",
    component="scheduler",
    scope="service",
    signal="lane_min_share",
    predicate="lt",
    threshold=0.05,
    window=5,
    min_samples=3,
    severity="degraded",
    debounce=5,
    description=(
        "with multiple priority lanes active, the coldest lane received "
        "under 5% of scheduler steps"
    ),
))
