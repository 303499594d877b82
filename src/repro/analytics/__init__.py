"""Analytics subsystem: SQL views over the campaign event log.

A read-everything / write-nothing layer on top of the campaign store:

* :mod:`~repro.analytics.views` — named SQL views (window functions over
  the replayed event mirror): trajectories, shortfall/failover rates,
  scheduler fairness, cache and reslice trends.
* :mod:`~repro.analytics.refresh` — :class:`Analytics`, the incrementally
  refreshed analytics database (``after=seq`` cursor, O(new events)).
* :mod:`~repro.analytics.reference` — pure-Python reference
  implementations and :func:`assert_consistent`, the row-for-row
  SQL-vs-Python checker behind ``cli report --verify``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Analytics": ".refresh",
    "REPORT_SCHEMA": ".refresh",
    "REPORT_SECTIONS": ".views",
    "VIEW_DEFINITIONS": ".views",
    "ViewDef": ".views",
    "assert_consistent": ".reference",
    "default_analytics_path": ".refresh",
    "reference_rows": ".reference",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
