"""Health & alerting: SLO rules, rolling-window evaluation, regression watch.

The layer that turns PR 9's raw telemetry into verdicts:

* :mod:`~repro.monitor.rules` — declarative, frozen :class:`AlertRule`
  definitions behind a ``register_rule`` registry, with built-ins for
  provider failover, fulfillment shortfall, span errors, cache hit-rate
  collapse, and scheduler lane starvation.
* :mod:`~repro.monitor.windows` — seq-cursored incremental rolling
  windows (keyed by iteration / evaluation index, never wall-clock).
* :mod:`~repro.monitor.health` — :class:`CampaignMonitor` (folds a
  campaign's durable events into persisted ``alert`` events) and
  :class:`HealthEvaluator` (per-component ok/degraded/critical verdicts
  behind ``GET /health/deep`` and ``cli monitor status``).
* :mod:`~repro.monitor.regression` — the benchmark watchdog comparing
  fresh runs against the committed ``benchmarks/BENCH_*.json`` points.

Monitoring reads events and metric snapshots and *appends* alert events;
it never touches tuner state, so monitored and unmonitored runs produce
byte-identical tuning results.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "COMPONENTS": ".rules",
    "SEVERITIES": ".rules",
    "STATES": ".health",
    "Alert": ".health",
    "AlertRule": ".rules",
    "CampaignMonitor": ".health",
    "HealthEvaluator": ".health",
    "Regression": ".regression",
    "RollingWindow": ".windows",
    "alert_history": ".health",
    "alert_payload": ".health",
    "available_rules": ".rules",
    "campaign_rules": ".rules",
    "compare_numbers": ".regression",
    "get_rule": ".rules",
    "is_rule": ".rules",
    "load_benchmarks": ".regression",
    "register_rule": ".rules",
    "rule_descriptions": ".rules",
    "service_rules": ".rules",
    "unregister_rule": ".rules",
    "watchdog": ".regression",
    "worst_status": ".health",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
