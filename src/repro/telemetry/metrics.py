"""Named metrics instruments and the process-wide registry.

Three instrument kinds, all thread-safe and all living in a
:class:`MetricsRegistry`:

* :class:`Counter` — monotonically increasing totals (requests, cache hits);
* :class:`Gauge` — last-write-wins point values (pump running, queue depth);
* :class:`Histogram` — value distributions over **fixed** bucket boundaries
  (:data:`DEFAULT_BUCKETS`), so the *shape* of a snapshot is deterministic
  even though the observed latencies are not.

Every instrument shares its registry's lock, so
:meth:`MetricsRegistry.snapshot` is a point-in-time atomic read — no
counter in the snapshot can be mid-update relative to another.  That
single-lock snapshot is the repo-wide answer to torn ``/stats`` reads
(the tuner service's ``serve.*`` counters and the cache counters build
their JSON surfaces on it).

Snapshots are plain JSON dicts and **mergeable**:
:meth:`MetricsRegistry.merge` folds one snapshot into a live registry —
counters and histogram buckets add, gauges take the incoming value — which
is how :class:`~repro.engine.executor.ProcessPoolExecutor` workers
aggregate their per-job metrics into the parent process.

Labels are supported on every instrument (``registry.histogram("lat",
provider="pool")``); a labeled instrument's snapshot key renders as
``name{provider=pool}`` with label keys sorted.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "merge_snapshots",
    "histogram_quantiles",
    "render_prometheus",
]

#: Fixed histogram bucket upper bounds, in seconds — chosen once so every
#: process and every run produces structurally identical snapshots.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _render_key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: str, lock: threading.RLock) -> None:
        self.key = key
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins point value."""

    __slots__ = ("key", "_value", "_lock")

    def __init__(self, key: str, lock: threading.RLock) -> None:
        self.key = key
        self._value: float = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A distribution over fixed bucket boundaries.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflow (``> buckets[-1]``).  ``sum``/``count`` track the total
    mass, so means are recoverable from any snapshot.
    """

    __slots__ = ("key", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        key: str,
        lock: threading.RLock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"bucket bounds must be sorted and non-empty: {buckets}")
        self.key = key
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    break
            else:
                self._counts[-1] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Get-or-create instrument store with atomic snapshot and merge."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(key, self._lock)
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(key, self._lock)
                self._gauges[key] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = _render_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(key, self._lock, buckets=buckets)
                self._histograms[key] = instrument
            return instrument

    # -- snapshot / merge --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """One atomic, JSON-compatible view of every instrument."""
        with self._lock:
            return {
                "counters": {
                    key: counter._value
                    for key, counter in sorted(self._counters.items())
                },
                "gauges": {
                    key: gauge._value for key, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    key: histogram.snapshot()
                    for key, histogram in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry (worker aggregation)."""
        with self._lock:
            for key, value in (snapshot.get("counters") or {}).items():
                counter = self._counters.get(key)
                if counter is None:
                    counter = Counter(key, self._lock)
                    self._counters[key] = counter
                counter._value += int(value)
            for key, value in (snapshot.get("gauges") or {}).items():
                gauge = self._gauges.get(key)
                if gauge is None:
                    gauge = Gauge(key, self._lock)
                    self._gauges[key] = gauge
                gauge._value = float(value)
            for key, incoming in (snapshot.get("histograms") or {}).items():
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = Histogram(
                        key, self._lock, buckets=tuple(incoming["buckets"])
                    )
                    self._histograms[key] = histogram
                if list(histogram.buckets) != [
                    float(b) for b in incoming["buckets"]
                ]:
                    raise ValueError(
                        f"histogram {key!r} bucket boundaries differ; "
                        f"refusing to merge mismatched shapes"
                    )
                for index, count in enumerate(incoming["counts"]):
                    histogram._counts[index] += int(count)
                histogram._sum += float(incoming["sum"])
                histogram._count += int(incoming["count"])

    def reset(self) -> None:
        """Drop every instrument (tests and fresh worker registries)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Merge snapshot dicts into one (later gauges win), purely functionally."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def histogram_quantiles(
    histogram: Mapping[str, Any],
    quantiles: Iterable[float] = (0.5, 0.95, 0.99),
) -> dict[str, float | None]:
    """Quantile estimates from one histogram snapshot's bucket counts.

    Standard linearly-interpolated estimation over the cumulative bucket
    counts: the q-quantile falls in the first bucket whose cumulative
    count reaches ``q * count`` and is interpolated between that bucket's
    bounds (the first bucket's lower edge is 0 — these are latency
    histograms).  Observations in the overflow slot clamp to the top
    bound, the best available estimate without an upper edge.  Keys
    render as ``p50`` / ``p95`` / ``p99``; values are ``None`` for an
    empty histogram.
    """
    bounds = [float(bound) for bound in histogram.get("buckets", ())]
    counts = [int(count) for count in histogram.get("counts", ())]
    total = sum(counts)
    estimates: dict[str, float | None] = {}
    for quantile in quantiles:
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantiles must be in (0, 1], got {quantile}")
        label = f"p{quantile * 100:g}"
        if total == 0:
            estimates[label] = None
            continue
        target = quantile * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= target:
                if index >= len(bounds):  # overflow slot
                    estimates[label] = bounds[-1]
                else:
                    lower = 0.0 if index == 0 else bounds[index - 1]
                    upper = bounds[index]
                    fraction = (target - previous) / count
                    estimates[label] = lower + (upper - lower) * fraction
                break
    return estimates


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_parse(key: str) -> tuple[str, list[tuple[str, str]]]:
    """Split a snapshot key into a sanitized metric name and label pairs."""
    labels: list[tuple[str, str]] = []
    name = key
    if key.endswith("}") and "{" in key:
        name, _, rendered = key.partition("{")
        for pair in rendered[:-1].split(","):
            label, _, value = pair.partition("=")
            labels.append((_PROM_NAME_RE.sub("_", label.strip()), value))
    name = _PROM_NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = f"_{name}"
    return name, labels


def _prom_labels(labels: Iterable[tuple[str, str]]) -> str:
    rendered = ",".join(
        '{}="{}"'.format(
            label,
            value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for label, value in labels
    )
    return f"{{{rendered}}}" if rendered else ""


def _prom_number(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """A snapshot in Prometheus text exposition format (version 0.0.4).

    Counters and gauges render one sample each; histograms render the
    conventional cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Dots in repo metric names become underscores
    (``engine.cache_hits`` -> ``engine_cache_hits``); one ``# TYPE`` line
    is emitted per family, covering every labeled series in it.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in (snapshot.get("counters") or {}).items():
        name, labels = _prom_parse(key)
        declare(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_number(value)}")
    for key, value in (snapshot.get("gauges") or {}).items():
        name, labels = _prom_parse(key)
        declare(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_number(value)}")
    for key, histogram in (snapshot.get("histograms") or {}).items():
        name, labels = _prom_parse(key)
        declare(name, "histogram")
        cumulative = 0
        counts = [int(count) for count in histogram.get("counts", ())]
        for bound, count in zip(histogram.get("buckets", ()), counts):
            cumulative += count
            series = _prom_labels(labels + [("le", _prom_number(bound))])
            lines.append(f"{name}_bucket{series} {cumulative}")
        total = sum(counts)
        inf_series = _prom_labels(labels + [("le", "+Inf")])
        lines.append(f"{name}_bucket{inf_series} {total}")
        lines.append(
            f"{name}_sum{_prom_labels(labels)} "
            f"{repr(float(histogram.get('sum', 0.0)))}"
        )
        lines.append(f"{name}_count{_prom_labels(labels)} {total}")
    return "\n".join(lines) + "\n"


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install a default registry (None -> fresh); returns the previous one.

    Pool workers swap in a job-local registry around each job so the
    snapshot they ship back contains exactly that job's deltas.
    """
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry if registry is not None else MetricsRegistry()
        return previous
