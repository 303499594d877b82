"""Persistent, shared result/curve cache on stdlib sqlite3 (WAL mode).

The in-memory caches of :mod:`repro.engine.cache` die with the process, so
every :class:`~repro.engine.executor.ProcessPoolExecutor` worker, every
daemon restart, and every resumed campaign re-pays for trainings the system
has already performed.  This module makes the cache a durable, content-
addressed materialized view over ``(data, config, seed) -> result`` — the
incremental-view-maintenance stance of the rest of the repo: when nothing a
result depends on changed, serve the old result, across processes and
restarts.

* :class:`SqliteResultCache` implements the
  :class:`~repro.engine.cache.ResultCache` protocol on a SQLite file in WAL
  mode with the same per-append commit discipline as
  :class:`repro.campaigns.store.SqliteStore`: every write is its own
  committed transaction, so a ``kill -9`` mid-``put`` can lose at most the
  entry being written, never a committed one.  A small in-process LRU front
  keeps hot lookups at dictionary speed while the disk tier is shared by
  serial runs, every pool worker, and restarted daemons.
* :class:`SqliteCurveCache` extends :class:`~repro.engine.cache.CurveCache`
  with a disk tier in the same file: fitted curves are keyed by
  ``(estimation context, slice name, full-dataset fingerprint)``, so a
  restarted process serves yesterday's curves for an unchanged dataset
  state instead of re-measuring them.

Determinism is the product: entries are versioned pickles
(:data:`RESULT_SCHEMA` / :data:`CURVE_SCHEMA`), NumPy arrays round-trip
bitwise through pickle, and a corrupted or version-mismatched blob degrades
to a cache *miss* — never an error, never a wrong answer.  (Like the
campaign store's snapshots, blobs are pickles: only point a cache at files
you trust.)

Hit/miss counters live in the database too (one row per tier), so
:attr:`SqliteResultCache.stats` aggregates honestly across every process
that ever touched the file — including pool workers, whose lookups the
parent process cannot see.
"""

from __future__ import annotations

import atexit
import copy
import functools
import hashlib
import os
import pickle
import sqlite3
import threading
import time
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.engine.cache import CacheStats, CurveCache, _CurveEntry, pool_fingerprints
from repro.engine.job import JobResult, TrainingJob, run_training_jobs
from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.curves.power_law import FittedCurve
    from repro.slices.sliced_dataset import SlicedDataset

#: Version tag stored with every serialized training result.  Bump it when
#: the :class:`~repro.engine.job.JobResult` layout changes; old entries then
#: degrade to misses instead of deserializing into garbage.
RESULT_SCHEMA = "repro.jobresult/2"

#: Version tag stored with every serialized fitted curve.
CURVE_SCHEMA = "repro.curve/1"

#: Default file name inside a ``--cache-dir`` / ``REPRO_CACHE_DIR`` directory.
CACHE_FILENAME = "cache.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    schema      TEXT NOT NULL,
    payload     BLOB NOT NULL,
    size        INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_last_access ON results(last_access);
CREATE TABLE IF NOT EXISTS curves (
    curve_key   TEXT PRIMARY KEY,
    schema      TEXT NOT NULL,
    payload     BLOB NOT NULL,
    size        INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_curves_last_access ON curves(last_access);
CREATE TABLE IF NOT EXISTS counters (
    tier      TEXT PRIMARY KEY,
    hits      INTEGER NOT NULL DEFAULT 0,
    misses    INTEGER NOT NULL DEFAULT 0,
    evictions INTEGER NOT NULL DEFAULT 0
);
"""

#: Counter rows maintained in the database, in display order.
TIERS = ("memory", "results", "curves")


def default_cache_path(cache_dir: str) -> str:
    """The cache file used for a ``--cache-dir``/``REPRO_CACHE_DIR`` directory."""
    return os.path.join(cache_dir, CACHE_FILENAME)


class SqliteResultCache:
    """Disk-backed, content-addressed :class:`~repro.engine.cache.ResultCache`.

    Two tiers answer every lookup:

    * a small in-process LRU **front** (``memory_entries`` deserialized
      results, served copy-on-read exactly like
      :class:`~repro.engine.cache.InMemoryResultCache`), and
    * the **disk** tier: one WAL-mode SQLite file, safely shared by any
      number of threads (one connection serialized by an RLock, mirroring
      :class:`repro.campaigns.store.SqliteStore`) and any number of
      *processes*, each holding its own :class:`SqliteResultCache` over the
      same path.

    Parameters
    ----------
    path:
        The cache database file (created on first use, parent directory
        included).  ``":memory:"`` works for tests but defeats persistence.
    memory_entries:
        Capacity of the in-process LRU front; ``None`` means unbounded,
        which is rarely what a long-lived daemon wants.
    """

    def __init__(self, path: str, memory_entries: int | None = 128) -> None:
        if memory_entries is not None and memory_entries <= 0:
            raise ConfigurationError(
                f"memory_entries must be positive or None, got {memory_entries}"
            )
        self.path = str(path)
        self.memory_entries = memory_entries
        parent = os.path.dirname(self.path)
        if parent and self.path != ":memory:":
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
        self._front: OrderedDict[str, JobResult] = OrderedDict()
        # Unflushed per-tier counter deltas.  Memory-front hits only bump a
        # Python int (the O(µs) hot path); deltas ride along with the next
        # disk transaction (or an explicit flush/close/stats read).
        self._deltas: dict[str, CacheStats] = {tier: CacheStats() for tier in TIERS}
        self._closed = False

    # -- the ResultCache protocol -------------------------------------------------
    def get(self, fingerprint: str, *, count_miss: bool = True) -> JobResult | None:
        """Serve one result from the front or the disk tier, or ``None``.

        Hits hand out an independent copy marked ``from_cache=True``.  A
        blob that fails to deserialize or carries a different schema tag is
        deleted and reported as a miss — degraded, never raised.

        ``count_miss=False`` suppresses the disk-tier miss counter: pool
        workers re-check the cache for jobs whose miss the parent process
        already counted, so without it every pooled training would count
        twice.
        """
        with self._lock:
            front = self._front.get(fingerprint)
            if front is not None:
                self._front.move_to_end(fingerprint)
                self._deltas["memory"].hits += 1
                return self._serve(front)
            self._deltas["memory"].misses += 1
            row = self._conn.execute(
                "SELECT schema, payload FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            result = None if row is None else self._decode_result(fingerprint, row)
            if result is None:
                if count_miss:
                    self._deltas["results"].misses += 1
                return None
            self._deltas["results"].hits += 1
            with self._conn:
                self._conn.execute(
                    "UPDATE results SET last_access = ? WHERE fingerprint = ?",
                    (time.time(), fingerprint),
                )
                self._flush_locked()
            self._remember(fingerprint, result)
            return self._serve(result)

    def put(self, fingerprint: str, result: JobResult) -> None:
        """Persist one result (committed transaction) and front it.

        A result whose payload cannot pickle (e.g. an exotic caller tag)
        degrades to front-only caching with a warning — the disk tier only
        ever holds entries it can serve back.
        """
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            warnings.warn(
                "training result is not picklable; cached in memory only",
                RuntimeWarning,
                stacklevel=2,
            )
            with self._lock:
                self._remember(fingerprint, result)
            return
        now = time.time()
        with self._lock:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, schema, payload, size, created_at, last_access) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        RESULT_SCHEMA,
                        sqlite3.Binary(payload),
                        len(payload),
                        now,
                        now,
                    ),
                )
                self._flush_locked()
            self._remember(fingerprint, result)

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT count(*) FROM results").fetchone()
        return int(row[0])

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._front:
                return True
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    # -- statistics ---------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Aggregated view for the :class:`ResultCache` protocol.

        ``hits`` are trainings avoided (front + disk, summed across every
        process sharing the file); ``misses`` are disk-tier misses — every
        top-level miss falls through both tiers, so the two coincide and
        front misses that the disk served are not double-counted.
        """
        tiers = self.tier_stats()
        memory, disk = tiers["memory"], tiers["results"]
        return CacheStats(
            hits=memory.hits + disk.hits,
            misses=disk.misses,
            evictions=memory.evictions + disk.evictions,
        )

    def stats_snapshot(self) -> dict[str, Any]:
        """All aggregated counters in one consistent read.

        One :meth:`tier_stats` pass (a single locked flush + query) feeds
        every number, so the payload cannot tear across a concurrent
        update the way four separate :attr:`stats` reads could.
        """
        tiers = self.tier_stats()
        memory, disk = tiers["memory"], tiers["results"]
        return CacheStats(
            hits=memory.hits + disk.hits,
            misses=disk.misses,
            evictions=memory.evictions + disk.evictions,
        ).snapshot()

    def tier_stats(self) -> dict[str, CacheStats]:
        """Cumulative per-tier counters, aggregated across processes."""
        with self._lock:
            with self._conn:
                self._flush_locked()
            rows = self._conn.execute(
                "SELECT tier, hits, misses, evictions FROM counters"
            ).fetchall()
        stats = {tier: CacheStats() for tier in TIERS}
        for tier, hits, misses, evictions in rows:
            stats[tier] = CacheStats(
                hits=int(hits), misses=int(misses), evictions=int(evictions)
            )
        return stats

    def entry_stats(self) -> dict[str, dict[str, int]]:
        """Per-table entry counts and payload bytes (for ``cache stats``)."""
        with self._lock:
            tables = {}
            for table in ("results", "curves"):
                count, size = self._conn.execute(
                    f"SELECT count(*), coalesce(sum(size), 0) FROM {table}"
                ).fetchone()
                tables[table] = {"entries": int(count), "size_bytes": int(size)}
        return tables

    def flush(self) -> None:
        """Persist any buffered counter deltas (front hits) to the file."""
        with self._lock:
            if self._closed:
                return
            with self._conn:
                self._flush_locked()

    def _flush_locked(self) -> None:
        """Add unflushed deltas to the shared counter rows (inside a txn)."""
        for tier, delta in self._deltas.items():
            if not (delta.hits or delta.misses or delta.evictions):
                continue
            self._conn.execute(
                "INSERT INTO counters (tier, hits, misses, evictions) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(tier) DO UPDATE SET "
                "hits = hits + excluded.hits, "
                "misses = misses + excluded.misses, "
                "evictions = evictions + excluded.evictions",
                (tier, delta.hits, delta.misses, delta.evictions),
            )
            self._deltas[tier] = CacheStats()

    # -- maintenance --------------------------------------------------------------
    def clear(self) -> None:
        """Drop every stored result and curve (counters are kept)."""
        with self._lock:
            with self._conn:
                self._conn.execute("DELETE FROM results")
                self._conn.execute("DELETE FROM curves")
            self._front.clear()

    def clear_all(self) -> dict[str, int]:
        """Drop entries *and* reset counters; returns what was removed."""
        with self._lock:
            removed = self.entry_stats()
            with self._conn:
                self._conn.execute("DELETE FROM results")
                self._conn.execute("DELETE FROM curves")
                self._conn.execute("DELETE FROM counters")
            for delta in self._deltas.values():
                delta.hits = delta.misses = delta.evictions = 0
            self._front.clear()
        return {
            "removed_results": removed["results"]["entries"],
            "removed_curves": removed["curves"]["entries"],
            "freed_bytes": removed["results"]["size_bytes"]
            + removed["curves"]["size_bytes"],
        }

    def gc(self, max_mb: float) -> dict[str, int]:
        """Evict least-recently-accessed entries until the payload fits.

        Walks results and curves together by ``last_access`` (oldest first)
        and deletes until total payload size is at most ``max_mb``
        megabytes.  Evictions count into the disk tiers' shared counters.
        """
        if max_mb < 0:
            raise ConfigurationError(f"max_mb must be >= 0, got {max_mb}")
        limit = int(max_mb * 1024 * 1024)
        removed = {"results": 0, "curves": 0}
        freed = 0
        with self._lock:
            total = sum(
                table["size_bytes"] for table in self.entry_stats().values()
            )
            if total > limit:
                rows = self._conn.execute(
                    "SELECT 'results' AS tbl, fingerprint AS key, size, last_access"
                    "  FROM results "
                    "UNION ALL "
                    "SELECT 'curves' AS tbl, curve_key AS key, size, last_access"
                    "  FROM curves "
                    "ORDER BY last_access, key"
                ).fetchall()
                with self._conn:
                    for table, key, size, _ in rows:
                        if total <= limit:
                            break
                        column = (
                            "fingerprint" if table == "results" else "curve_key"
                        )
                        self._conn.execute(
                            f"DELETE FROM {table} WHERE {column} = ?", (key,)
                        )
                        self._front.pop(key, None)
                        tier = "results" if table == "results" else "curves"
                        self._deltas[tier].evictions += 1
                        removed[table] += 1
                        freed += int(size)
                        total -= int(size)
                    self._flush_locked()
        return {
            "removed_results": removed["results"],
            "removed_curves": removed["curves"],
            "freed_bytes": freed,
            "remaining_bytes": total,
        }

    # -- the curve tier -----------------------------------------------------------
    def store_curve(self, curve_key: str, curve: "FittedCurve") -> None:
        """Persist one fitted curve under its content-addressed key."""
        try:
            payload = pickle.dumps(curve, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # pragma: no cover - curves are plain dataclasses
            return
        now = time.time()
        with self._lock:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO curves "
                    "(curve_key, schema, payload, size, created_at, last_access) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        curve_key,
                        CURVE_SCHEMA,
                        sqlite3.Binary(payload),
                        len(payload),
                        now,
                        now,
                    ),
                )
                self._flush_locked()

    def load_curve(self, curve_key: str) -> "FittedCurve | None":
        """One stored curve, or ``None`` (corruption degrades to a miss)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT schema, payload FROM curves WHERE curve_key = ?",
                (curve_key,),
            ).fetchone()
            curve = None
            if row is not None and row[0] == CURVE_SCHEMA:
                try:
                    curve = pickle.loads(row[1])
                except Exception:
                    curve = None
            if curve is None:
                if row is not None:
                    # Version-mismatched or corrupted: drop it so the slot
                    # can be refilled by the refit this miss triggers.
                    with self._conn:
                        self._conn.execute(
                            "DELETE FROM curves WHERE curve_key = ?", (curve_key,)
                        )
                self._deltas["curves"].misses += 1
                return None
            self._deltas["curves"].hits += 1
            with self._conn:
                self._conn.execute(
                    "UPDATE curves SET last_access = ? WHERE curve_key = ?",
                    (time.time(), curve_key),
                )
                self._flush_locked()
        return curve

    # -- executor integration -----------------------------------------------------
    def worker_runner(self) -> Callable[[list[TrainingJob]], list[JobResult]]:
        """A picklable chunk runner that shares this cache file across workers.

        :class:`~repro.engine.executor.ProcessPoolExecutor` maps it over
        chunks of cache-missed jobs: each worker process opens its own
        read/write connection to the same WAL file, re-checks every job's
        fingerprint (another process may have trained it since the parent's
        miss), trains the rest together, and persists each fresh result as
        soon as its chunk finishes — so no cross-process result is ever
        retrained, and a chunk that finished before ``kill -9`` survives
        for whoever runs next.
        """
        return functools.partial(run_training_jobs_shared, self.path)

    # -- internals ----------------------------------------------------------------
    def _decode_result(self, fingerprint: str, row: tuple) -> JobResult | None:
        """Deserialize one row; schema mismatch/corruption degrades to a miss."""
        schema, payload = row
        result: JobResult | None = None
        if schema == RESULT_SCHEMA:
            try:
                loaded = pickle.loads(payload)
            except Exception:
                loaded = None
            if isinstance(loaded, JobResult):
                result = loaded
        if result is None:
            with self._conn:
                self._conn.execute(
                    "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
                )
        return result

    def _remember(self, fingerprint: str, result: JobResult) -> None:
        """Insert into the LRU front, evicting (and counting) when full."""
        self._front[fingerprint] = result
        self._front.move_to_end(fingerprint)
        if self.memory_entries is not None and len(self._front) > self.memory_entries:
            self._front.popitem(last=False)
            self._deltas["memory"].evictions += 1

    @staticmethod
    def _serve(result: JobResult) -> JobResult:
        served = copy.deepcopy(result)
        served.from_cache = True
        return served

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Flush buffered counters and release the connection."""
        with self._lock:
            if self._closed:
                return
            with self._conn:
                self._flush_locked()
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "SqliteResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: One cache handle per file per worker process, reused across batches.
_WORKER_CACHES: dict[str, SqliteResultCache] = {}


def _worker_cache(path: str) -> SqliteResultCache:
    cache = _WORKER_CACHES.get(path)
    if cache is None:
        # A small front is plenty: within one batch every fingerprint is
        # distinct, so the front only helps across batches.
        cache = SqliteResultCache(path, memory_entries=8)
        _WORKER_CACHES[path] = cache
        atexit.register(cache.close)
    return cache


def run_training_jobs_shared(path: str, jobs: list[TrainingJob]) -> list[JobResult]:
    """Worker-side execution of a chunk against the shared cache at ``path``.

    Module-level (and bound to a plain path via :func:`functools.partial`)
    so it pickles across the process-pool boundary.  Every job is
    re-checked and every fresh result stored on its own; the re-check
    lookups pass ``count_miss=False`` — the parent already counted these
    misses, so only the cross-process hits they discover add to the shared
    counters.
    """
    cache = _worker_cache(path)
    results: list[JobResult | None] = [None] * len(jobs)
    misses = []
    for index, job in enumerate(jobs):
        hit = cache.get(job.fingerprint, count_miss=False)
        if hit is None:
            misses.append(index)
            continue
        hit.tag = job.tag
        hit.fingerprint = job.fingerprint
        results[index] = hit
    for index, result in zip(misses, run_training_jobs([jobs[i] for i in misses])):
        result.fingerprint = jobs[index].fingerprint
        cache.put(result.fingerprint, result)
        results[index] = result
    return results  # type: ignore[return-value]


def dataset_fingerprint(fingerprints: Mapping[str, str]) -> str:
    """Content hash of the *whole* dataset (every slice's pool).

    A slice's fitted curve depends on every pool, not just its own: the
    amortized protocol trains one model on fractions of *all* slices, and
    the exhaustive protocol trains on (subset of one slice) + (all others in
    full).  Persisted curves are therefore addressed by the full dataset
    state — keying by the slice's own pool would let a later refit (same
    pool, different neighbours) overwrite the earlier curve, and a restarted
    run would hydrate the wrong one.
    """
    joined = "|".join(f"{name}:{fp}" for name, fp in sorted(fingerprints.items()))
    return hashlib.sha256(joined.encode()).hexdigest()


def curve_key(context: str, name: str, dataset_key: str) -> str:
    """Content address of one cached curve.

    ``context`` (estimation seed/config) + the slice name + the full dataset
    fingerprint: two runs share a slot exactly when they would fit
    byte-identical curves.
    """
    digest = hashlib.sha256(f"{context}\x1f{name}\x1f{dataset_key}".encode())
    return digest.hexdigest()


class SqliteCurveCache(CurveCache):
    """A :class:`~repro.engine.cache.CurveCache` with a shared disk tier.

    The in-memory per-slice table (and its transition-counted stats) work
    exactly as in the base class; on a memory miss the disk tier of the
    owning :class:`SqliteResultCache` is consulted under
    :func:`curve_key`.  Each :meth:`update` persists the *entire* current
    table under the current dataset fingerprint — including slices it did
    not refit — and each new dataset state hydrates *every* slice from
    that state's rows, so a restarted run holds, at every dataset state it
    passes through, exactly the curve table an uninterrupted in-memory run
    would be holding at that point.  (In-process the probes are no-ops: a
    state's rows only exist once its refit already ran.)
    """

    def __init__(self, backend: SqliteResultCache, context: str) -> None:
        super().__init__()
        self._backend = backend
        self._context = str(context)
        #: The last dataset state probed — each state is probed exactly
        #: once (pools only grow, states never come back), so repeated
        #: polls neither re-read the file nor inflate counters.
        self._hydrated_key: str | None = None

    def stale_slices(
        self,
        sliced: "SlicedDataset",
        fingerprints: Mapping[str, str] | None = None,
    ) -> list[str]:
        """Hydrate memory from this dataset state's rows, then delegate.

        Hydration covers every slice, not just per-pool-stale ones: one
        changed pool sends the estimator through a refit wave whose outputs
        land on *all* slices (amortized protocol), and keeping any slice's
        pre-wave curve here would both diverge from the uninterrupted run
        and suppress the wave's staleness trigger.
        """
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        dataset_key = dataset_fingerprint(fingerprints)
        if dataset_key != self._hydrated_key:
            self._hydrated_key = dataset_key
            for name, fingerprint in fingerprints.items():
                curve = self._backend.load_curve(
                    curve_key(self._context, name, dataset_key)
                )
                if curve is not None:
                    self._entries[name] = _CurveEntry(
                        pool_fingerprint=fingerprint, curve=curve
                    )
        return super().stale_slices(sliced, fingerprints=fingerprints)

    def update(
        self,
        sliced: "SlicedDataset",
        curves: Mapping[str, "FittedCurve"],
        fingerprints: Mapping[str, str] | None = None,
    ) -> None:
        """Record fresh fits in memory, persist the full table to disk."""
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        super().update(sliced, curves, fingerprints=fingerprints)
        dataset_key = dataset_fingerprint(fingerprints)
        for name in fingerprints:
            entry = self._entries.get(name)
            if entry is not None:
                self._backend.store_curve(
                    curve_key(self._context, name, dataset_key), entry.curve
                )
