"""Spans recorded from outside the program, around calls into each layer.

``install()`` replaces a fixed set of public functions and methods with
thin wrappers that record one span per call: name, start, end, parent span
and op id.  The spans stay in memory (``Recorder.spans``) and are written
once, at the end, by whoever owns the recorder.  ``uninstall()`` puts the
original callables back, so traced and untraced ops can alternate in one
process.

Nothing here changes what a wrapped call computes: a wrapper only reads the
arguments and the return value.

Layer names follow the package's modules (``ml``, ``engine``, ``curves``,
``core``, ``acquisition``, ``campaigns``, ``monitor``, ``analytics``,
``serve``, ``datasets``); see README.md in this directory for the span list.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

# A span is a list while open and a tuple once closed:
# (span_id, parent_id, op_id, name, start, end, attrs)
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Recorder:
    """Thread-aware in-memory span log."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(frame[NAME] == name for frame in self._stack())

    @contextmanager
    def span(self, name: str, op: object = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[OP] if parent is not None else self.op
        frame = [
            next(self._ids),
            parent[ID] if parent is not None else None,
            op,
            name,
            time.perf_counter(),
            0.0,
            None,
        ]
        stack.append(frame)
        try:
            yield frame
        finally:
            frame[END] = time.perf_counter()
            stack.pop()
            self.spans.append(tuple(frame))

    # -- call-site wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, only_inside=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, kwargs, result)`` returns the span's attribute dict.
        With ``only_inside``, calls made outside an open span of that name
        run unrecorded.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_inside is not None and not recorder.inside(only_inside):
                return original(*args, **kwargs)
            with recorder.span(name) as frame:
                result = original(*args, **kwargs)
                if after is not None:
                    frame[ATTRS] = after(args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Recorder":
        """Wrap every traced call site; returns self."""
        from repro.acquisition import service
        from repro.analytics import refresh
        from repro.campaigns import campaign, store
        from repro.core import oneshot, session, tuner
        from repro.curves import estimator
        from repro.datasets import blueprints
        from repro.engine import diskcache, executor
        from repro.ml import linear, mlp, train
        from repro.monitor import health
        from repro.serve import app

        wrap = self.wrap
        wrap(blueprints.SyntheticTask, "generate", "datasets.generate")
        wrap(train.Trainer, "fit", "ml.fit", after=_fit_attrs)
        for model in (linear.SoftmaxRegression, linear.LogisticRegression, mlp.MLPClassifier):
            wrap(model, "loss", "ml.loss", only_inside="ml.fit")
        wrap(executor.Executor, "submit", "engine.submit", after=_submit_attrs)
        wrap(estimator.LearningCurveEstimator, "estimate", "curves.estimate")
        wrap(estimator.LearningCurveEstimator, "collect_points", "curves.collect")
        wrap(estimator.LearningCurveEstimator, "fit_points", "curves.fit")
        # Patched where it is looked up, not where it is defined.
        wrap(oneshot, "optimize_allocation", "core.optimize")
        wrap(tuner.SliceTuner, "evaluate", "core.evaluate")
        wrap(session.TunerSession, "_acquire_plan", "core.iteration")
        wrap(service.AcquisitionService, "acquire", "acquisition.acquire", after=_acquire_attrs)
        wrap(service.AcquisitionService, "submit", "acquisition.acquire", after=_acquire_attrs)
        # Opening and closing the sqlite files belongs to their layers too.
        for owner, name in (
            (store.SqliteStore, "campaigns.open"),
            (diskcache.SqliteResultCache, "engine.cache_open"),
            (refresh.Analytics, "analytics.open"),
        ):
            wrap(owner, "__init__", name)
            wrap(owner, "close", name)
        for backend in (store.SqliteStore, store.InMemoryStore):
            wrap(backend, "append_event", "campaigns.append")
            wrap(backend, "save_snapshot", "campaigns.snapshot", after=_snapshot_attrs)
            wrap(backend, "latest_snapshot", "campaigns.restore")
            wrap(backend, "events", "campaigns.events_read")
        wrap(tuner.SliceTuner, "restore_runtime_state", "campaigns.restore")
        wrap(session.TunerSession, "load_state_dict", "campaigns.restore")
        wrap(campaign.Campaign, "advance", "campaigns.step")
        wrap(health.CampaignMonitor, "fold", "monitor.fold")
        wrap(refresh.Analytics, "refresh", "analytics.refresh", after=_refresh_attrs)
        wrap(refresh.Analytics, "report", "analytics.report")
        for method, endpoint in SERVE_ENDPOINTS.items():
            wrap(app.TunerService, method, f"serve.{endpoint}")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped callable (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[list]:
        return [list(span) for span in self.spans]


#: ``TunerService`` method -> endpoint name used in span and metric names.
SERVE_ENDPOINTS = {
    "list_campaigns": "list",
    "show": "show",
    "log": "log",
    "report": "report",
    "health_deep": "health_deep",
    "server_stats": "stats",
    "submit": "submit",
}


def _fit_attrs(args, kwargs, result):
    return {"epochs": int(result.epochs_run)}


def _submit_attrs(args, kwargs, results):
    hits = sum(1 for result in results if getattr(result, "from_cache", False))
    return {"jobs": len(results), "hits": hits}


def _acquire_attrs(args, kwargs, result):
    fulfillments = result if isinstance(result, list) else [result]
    return {
        "requested": sum(int(f.effective_count) for f in fulfillments),
        "delivered": sum(int(f.delivered_count) for f in fulfillments),
        "failovers": sum(1 for f in fulfillments if len(f.provenance) > 1),
    }


def _snapshot_attrs(args, kwargs, result):
    payload = kwargs.get("payload", args[-1] if len(args) > 1 else b"")
    return {"bytes": len(payload)}


def _refresh_attrs(args, kwargs, result):
    return {"events": int(result.get("events_seen", 0))}


# -- folding spans into per-layer numbers ---------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, float] = {}
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] = children.get(span[PARENT], 0.0) + span[END] - span[START]
    return {span[ID]: span[END] - span[START] - children.get(span[ID], 0.0) for span in spans}


def fold(spans) -> dict[str, dict[str, float]]:
    """Span name -> {calls, busy, self, <summed attrs>}.

    ``busy`` counts only spans with no open ancestor of the same name, so a
    re-entrant call is not counted twice.
    """
    by_id = {span[ID]: span for span in spans}
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span[NAME], {"calls": 0, "busy": 0.0, "self": 0.0})
        row["calls"] += 1
        row["self"] += own[span[ID]]
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] != span[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            row["busy"] += span[END] - span[START]
        for key, value in (span[ATTRS] or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def fold_by_op(spans) -> dict[object, dict[str, dict[str, float]]]:
    """Op id -> :func:`fold` of the spans of that op."""
    groups: dict[object, list] = {}
    for span in spans:
        groups.setdefault(span[OP], []).append(span)
    return {op: fold(group) for op, group in groups.items()}


def quartiles(values) -> tuple[float, float, float]:
    """(median, IQR, n) as ``statistics.quantiles(n=4)`` gives them."""
    values = sorted(values)
    if not values:
        return 0.0, 0.0, 0
    if len(values) == 1:
        return values[0], 0.0, 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1, len(values)
