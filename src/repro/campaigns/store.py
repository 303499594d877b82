"""Durable campaign state: an append-only event log plus periodic snapshots.

A :class:`CampaignStore` persists everything a campaign run produces:

* one **campaign record** per campaign — the declarative
  :class:`~repro.campaigns.campaign.CampaignSpec` (as a JSON dict), a
  content fingerprint for idempotent re-run detection, a status, and a
  scheduling priority;
* an **append-only event log** — one ``iteration`` event per
  :class:`~repro.core.plan.IterationRecord` and one ``fulfillment`` event
  per :class:`~repro.acquisition.requests.Fulfillment` summary, exactly the
  stream :meth:`TunerSession.stream_events
  <repro.core.session.TunerSession.stream_events>` yields, plus lifecycle
  markers (``evaluate``, ``completed``); and
* periodic **snapshots** — opaque byte payloads (the campaign layer pickles
  a full runtime-state bundle) keyed by ``(campaign id, generation,
  iteration)``.

Recovery follows the incremental-view-maintenance stance of the FO+MOD line
of work: a run is *replayed* as its latest snapshot plus the event-log tail,
never recomputed from scratch.  Because resumed runs are deterministic,
re-executed iterations append byte-identical events under a fresh
**generation** number; :func:`replay_events` collapses the log back into a
single consistent history by keeping, for every iteration, the events of the
newest generation that covers it.
:class:`CampaignLog`, a campaign's record plus its replayed log read once,
is the one Python fold over that history; only the two cursor tails (the
daemon's live stream and the analytics mirror's refresh) read raw events.

Two backends implement the protocol:

* :class:`InMemoryStore` — plain dictionaries; for tests and throwaway runs.
* :class:`SqliteStore` — a stdlib-:mod:`sqlite3` file in WAL mode with one
  committed transaction per append, so a ``kill -9`` can lose at most the
  event being written, never a committed one.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from repro.utils.exceptions import CampaignError

#: Campaign lifecycle states.
PENDING = "pending"
RUNNING = "running"
PAUSED = "paused"
COMPLETED = "completed"
FAILED = "failed"

#: Statuses a campaign can be resumed from (``completed`` simply replays
#: its stored result).
RESUMABLE = (PENDING, RUNNING, PAUSED, FAILED)

#: ``CampaignSpec.budget`` when the stored spec omits it.
DEFAULT_BUDGET = 500.0

#: Store statuses that end a live event stream (a paused campaign may be
#: resumed later; the client reconnects with its cursor).
TERMINAL_STATUSES = (COMPLETED, FAILED, PAUSED)


@dataclass(frozen=True)
class CampaignRecord:
    """One campaign as the store knows it."""

    campaign_id: str
    name: str
    fingerprint: str
    spec: dict
    status: str = PENDING
    priority: int = 0
    created_at: float = 0.0


@dataclass(frozen=True)
class CampaignEvent:
    """One entry of a campaign's append-only event log.

    Attributes
    ----------
    seq:
        Store-assigned, strictly increasing sequence number.
    generation:
        Resume epoch the event was written under (0 for the first run; each
        :meth:`Campaign.resume <repro.campaigns.campaign.Campaign>` bumps
        it).  Deterministic re-execution after a crash re-appends identical
        events under a newer generation; replay keeps the newest.
    iteration:
        Iteration the event belongs to (0 for the minimum-size top-up,
        ``-1`` for events outside the loop, e.g. ``evaluate``).
    kind:
        ``iteration`` / ``fulfillment`` / ``evaluate`` / ``completed`` /
        ``reslice`` / ``telemetry`` (completed
        :class:`~repro.telemetry.Span` dicts, persisted only while a live
        tracer is installed) / ``alert``
        (:class:`~repro.monitor.Alert` rule transitions persisted by the
        campaign monitor; payloads carry rule identity and iteration
        index, never seqs, so resumed generations re-append them
        byte-identically).
    payload:
        JSON-compatible event body.
    """

    campaign_id: str
    seq: int
    generation: int
    iteration: int
    kind: str
    payload: dict

    def to_dict(self) -> dict[str, Any]:
        """The wire/``--json`` representation (shared by CLI and daemon)."""
        return {
            "seq": self.seq,
            "generation": self.generation,
            "iteration": self.iteration,
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass(frozen=True)
class CampaignSnapshot:
    """One opaque runtime-state snapshot of a campaign."""

    campaign_id: str
    generation: int
    iteration: int
    payload: bytes


@runtime_checkable
class CampaignStore(Protocol):
    """Protocol every campaign persistence backend implements."""

    def create_campaign(self, record: CampaignRecord) -> None:
        """Persist a new campaign record (id must be unused)."""
        ...

    def get_campaign(self, campaign_id: str) -> CampaignRecord:
        """Return the record for ``campaign_id``; raise if unknown."""
        ...

    def find_fingerprint(self, fingerprint: str) -> CampaignRecord | None:
        """The campaign carrying ``fingerprint``, or ``None``."""
        ...

    def list_campaigns(self) -> list[CampaignRecord]:
        """Every stored campaign, in creation order."""
        ...

    def set_status(self, campaign_id: str, status: str) -> None:
        """Update a campaign's lifecycle status."""
        ...

    def append_event(
        self,
        campaign_id: str,
        *,
        generation: int,
        iteration: int,
        kind: str,
        payload: Mapping[str, Any],
    ) -> int:
        """Append one event; returns its sequence number."""
        ...

    def events(
        self,
        campaign_id: str,
        kinds: tuple[str, ...] | None = None,
        after: int = 0,
    ) -> list[CampaignEvent]:
        """The campaign's event log in append order.

        ``kinds`` restricts the result to the named event kinds — progress
        summaries over large stores use it to skip parsing the heavy
        payloads they do not need (e.g. the full result embedded in every
        ``completed`` event).  ``after`` returns only events with
        ``seq > after`` — the live-tail cursor query of the serve layer,
        pushed into the backend so an idle poll costs O(new events).
        """
        ...

    def latest_generation(self, campaign_id: str) -> int:
        """Highest generation seen in events/snapshots (-1 when none)."""
        ...

    def save_snapshot(
        self, campaign_id: str, *, generation: int, iteration: int, payload: bytes
    ) -> None:
        """Persist one snapshot."""
        ...

    def latest_snapshot(self, campaign_id: str) -> CampaignSnapshot | None:
        """The most recently written snapshot, or ``None``."""
        ...

    def close(self) -> None:
        """Release backend resources."""
        ...


def replay_events(events: Iterable[CampaignEvent]) -> list[CampaignEvent]:
    """Collapse a multi-generation event log into one consistent history.

    Crash-resume re-executes the iterations after the last snapshot, so the
    raw log can contain the same iteration once per generation (with
    byte-identical payloads, since resumed runs are deterministic).  Replay
    keeps, for every iteration, only the events written by the newest
    generation that covers that iteration; out-of-loop events (iteration
    ``-1``) are deduplicated by ``(kind, iteration)`` the same way.
    """
    events = list(events)
    newest: dict[tuple[str, int], int] = {}
    for event in events:
        key = (event.kind, event.iteration)
        newest[key] = max(newest.get(key, event.generation), event.generation)
    kept = [
        event
        for event in events
        if event.generation == newest[(event.kind, event.iteration)]
    ]
    # Sequence order is already chronological: a resumed generation only
    # appends events for iterations after its snapshot, so the surviving
    # prefix (older generation) has strictly smaller seq numbers.
    kept.sort(key=lambda event: event.seq)
    return kept


@dataclass(frozen=True)
class CampaignLog:
    """One campaign's record and :func:`replay_events` of its log, read once.

    Summaries, alert history, span summaries, result reloads, monitor
    warm-up and the analytics reference oracles all read a campaign
    through it, so the derived totals below have one definition.
    """

    record: CampaignRecord
    events: list[CampaignEvent]

    @classmethod
    def read(
        cls,
        store: CampaignStore,
        campaign: str | CampaignRecord,
        kinds: tuple[str, ...] | None = None,
    ) -> "CampaignLog":
        """Read and replay one campaign's log; ``kinds`` skips parsing the rest."""
        if not isinstance(campaign, CampaignRecord):
            campaign = store.get_campaign(campaign)
        events = store.events(campaign.campaign_id, kinds=kinds)
        return cls(campaign, replay_events(events))

    def of(self, kind: str) -> list[CampaignEvent]:
        """The replayed events of one kind, in seq order."""
        return [event for event in self.events if event.kind == kind]

    @property
    def iterations(self) -> list[CampaignEvent]:
        """The ``iteration`` events in iteration order."""
        return sorted(self.of("iteration"), key=lambda event: event.iteration)

    @property
    def spent(self) -> float:
        """Budget spent, summed in iteration order (the SQL running sum's order)."""
        spent = 0.0
        for event in self.iterations:
            spent += float(event.payload.get("spent", 0.0))
        return spent

    @property
    def slice_generation(self) -> int:
        """The newest slice generation a ``reslice`` event reached (0 if none)."""
        return max(
            (int(e.payload.get("slice_generation", 0)) for e in self.of("reslice")),
            default=0,
        )


def campaign_logs(
    store: CampaignStore, kinds: tuple[str, ...] | None = None
) -> list[CampaignLog]:
    """Every campaign's :class:`CampaignLog`, in creation order."""
    return [CampaignLog.read(store, record, kinds) for record in store.list_campaigns()]


#: What a progress summary parses (``completed`` events embed full results).
_SUMMARY_KINDS = ("iteration", "fulfillment", "reslice")


def _summarize(store: CampaignStore, log: CampaignLog) -> dict[str, Any]:
    record = log.record
    iterations = log.iterations
    acquired: dict[str, int] = {}
    for event in iterations:
        for name, count in event.payload.get("acquired", {}).items():
            acquired[name] = acquired.get(name, 0) + int(count)
    return {
        "campaign_id": record.campaign_id,
        "name": record.name,
        "status": record.status,
        "priority": record.priority,
        "iterations": len(iterations),
        "spent": log.spent,
        "budget": record.spec.get("budget", DEFAULT_BUDGET),
        "acquired": acquired,
        # Generations start at 0 and increment by one per resume, so the
        # count is the latest generation + 1 — no need to scan the log.
        "generations": store.latest_generation(record.campaign_id) + 1,
        "fulfillments": len(log.of("fulfillment")),
        "slice_generation": log.slice_generation,
    }


def campaign_summary(store: CampaignStore, campaign_id: str) -> dict[str, Any]:
    """A campaign's progress summary, folded from its :class:`CampaignLog`.

    The one summary shape, shared by ``GET /campaigns`` and the CLI
    (``--json`` and text), so local and remote tooling parse one schema.
    It reads the stored spec dict as is, so it loads no tuner code.
    """
    return _summarize(store, CampaignLog.read(store, campaign_id, _SUMMARY_KINDS))


def campaign_summaries(store: CampaignStore) -> list[dict[str, Any]]:
    """Every campaign's summary in creation order (``GET /campaigns``, ``campaign list``)."""
    return [_summarize(store, log) for log in campaign_logs(store, _SUMMARY_KINDS)]


def _detail(store: CampaignStore, log: CampaignLog) -> dict[str, Any]:
    return {**_summarize(store, log), "spec": dict(log.record.spec)}


def campaign_detail(store: CampaignStore, campaign_id: str) -> dict[str, Any]:
    """The summary plus the stored spec (``GET /campaigns/<id>``)."""
    return _detail(store, CampaignLog.read(store, campaign_id, _SUMMARY_KINDS))


def campaign_log(store: CampaignStore, campaign_id: str) -> list[dict[str, Any]]:
    """The replayed event log as dicts (``GET /campaigns/<id>/log``)."""
    return [event.to_dict() for event in CampaignLog.read(store, campaign_id).events]


def campaign_show(
    store: CampaignStore, campaign_id: str
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """:func:`campaign_detail` and :func:`campaign_log` from one read of the
    log (``campaign show``).  Replay keeps or drops each event by its own
    kind and iteration, so the full log summarizes as the filtered one."""
    log = CampaignLog.read(store, campaign_id)
    return _detail(store, log), [event.to_dict() for event in log.events]


class InMemoryStore:
    """Dictionary-backed :class:`CampaignStore` (nothing survives the process).

    Safe under concurrent threads: every operation holds one re-entrant
    lock, mirroring the :class:`SqliteStore` write-lock discipline so the
    two backends stay interchangeable under the tuner service daemon.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._campaigns: dict[str, CampaignRecord] = {}
        self._events: dict[str, list[CampaignEvent]] = {}
        self._snapshots: dict[str, list[CampaignSnapshot]] = {}
        self._seq = 0

    # -- campaigns ---------------------------------------------------------------
    def create_campaign(self, record: CampaignRecord) -> None:
        with self._lock:
            if record.campaign_id in self._campaigns:
                raise CampaignError(
                    f"campaign {record.campaign_id!r} already exists"
                )
            if record.created_at == 0.0:
                record = replace(record, created_at=time.time())
            self._campaigns[record.campaign_id] = record
            self._events[record.campaign_id] = []
            self._snapshots[record.campaign_id] = []

    def get_campaign(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            try:
                return self._campaigns[campaign_id]
            except KeyError:
                raise CampaignError(f"unknown campaign {campaign_id!r}") from None

    def find_fingerprint(self, fingerprint: str) -> CampaignRecord | None:
        with self._lock:
            for record in self._campaigns.values():
                if record.fingerprint == fingerprint:
                    return record
            return None

    def list_campaigns(self) -> list[CampaignRecord]:
        with self._lock:
            return list(self._campaigns.values())

    def set_status(self, campaign_id: str, status: str) -> None:
        with self._lock:
            record = self.get_campaign(campaign_id)
            self._campaigns[campaign_id] = replace(record, status=status)

    # -- events ------------------------------------------------------------------
    def append_event(
        self,
        campaign_id: str,
        *,
        generation: int,
        iteration: int,
        kind: str,
        payload: Mapping[str, Any],
    ) -> int:
        with self._lock:
            self.get_campaign(campaign_id)
            self._seq += 1
            event = CampaignEvent(
                campaign_id=campaign_id,
                seq=self._seq,
                generation=int(generation),
                iteration=int(iteration),
                kind=str(kind),
                payload=dict(payload),
            )
            self._events[campaign_id].append(event)
            return event.seq

    def events(
        self,
        campaign_id: str,
        kinds: tuple[str, ...] | None = None,
        after: int = 0,
    ) -> list[CampaignEvent]:
        with self._lock:
            self.get_campaign(campaign_id)
            events = self._events[campaign_id]
            if after:
                events = [event for event in events if event.seq > after]
            if kinds is None:
                return list(events)
            wanted = set(kinds)
            return [event for event in events if event.kind in wanted]

    def latest_generation(self, campaign_id: str) -> int:
        with self._lock:
            self.get_campaign(campaign_id)
            generations = [event.generation for event in self._events[campaign_id]]
            generations += [
                snap.generation for snap in self._snapshots[campaign_id]
            ]
            return max(generations, default=-1)

    # -- snapshots ---------------------------------------------------------------
    def save_snapshot(
        self, campaign_id: str, *, generation: int, iteration: int, payload: bytes
    ) -> None:
        with self._lock:
            self.get_campaign(campaign_id)
            self._snapshots[campaign_id].append(
                CampaignSnapshot(
                    campaign_id=campaign_id,
                    generation=int(generation),
                    iteration=int(iteration),
                    payload=bytes(payload),
                )
            )

    def latest_snapshot(self, campaign_id: str) -> CampaignSnapshot | None:
        with self._lock:
            self.get_campaign(campaign_id)
            snapshots = self._snapshots[campaign_id]
            return snapshots[-1] if snapshots else None

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "InMemoryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_campaigns_fingerprint
    ON campaigns(fingerprint);
CREATE TABLE IF NOT EXISTS events (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    generation  INTEGER NOT NULL,
    iteration   INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_campaign ON events(campaign_id, seq);
CREATE INDEX IF NOT EXISTS idx_events_campaign_kind
    ON events(campaign_id, kind, seq);
CREATE TABLE IF NOT EXISTS snapshots (
    snap_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    generation  INTEGER NOT NULL,
    iteration   INTEGER NOT NULL,
    payload     BLOB NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_snapshots_campaign
    ON snapshots(campaign_id, snap_id);
"""


class SqliteStore:
    """File-backed :class:`CampaignStore` on stdlib :mod:`sqlite3`.

    The database runs in WAL mode and every append is its own committed
    transaction, so state persisted before an abrupt process death
    (``kill -9``, SIGTERM, power loss) is recoverable by simply reopening
    the file.  Snapshot payloads are stored as opaque BLOBs; events and
    specs as JSON text, so the log stays greppable with the ``sqlite3``
    command-line shell.

    Safe under concurrent threads: the tuner service daemon appends from
    its scheduler pump while HTTP handler threads read progress and replay
    event logs.  All access goes through one shared connection
    (``check_same_thread=False``) serialized by a re-entrant write lock —
    SQLite serializes writers anyway, so a process-level lock costs nothing
    and spares every reader the ``database is locked`` retry dance.

    Parameters
    ----------
    path:
        Database file path (created on first use).  ``":memory:"`` works for
        tests but obviously defeats durability.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)

    # -- campaigns ---------------------------------------------------------------
    def create_campaign(self, record: CampaignRecord) -> None:
        created_at = record.created_at or time.time()
        try:
            with self._lock, self._conn:
                self._conn.execute(
                    "INSERT INTO campaigns "
                    "(campaign_id, name, fingerprint, spec, status, priority, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        record.campaign_id,
                        record.name,
                        record.fingerprint,
                        json.dumps(record.spec, sort_keys=True),
                        record.status,
                        int(record.priority),
                        created_at,
                    ),
                )
        except sqlite3.IntegrityError:
            raise CampaignError(
                f"campaign {record.campaign_id!r} already exists"
            ) from None

    def get_campaign(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            row = self._conn.execute(
                "SELECT campaign_id, name, fingerprint, spec, status, priority, created_at "
                "FROM campaigns WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        if row is None:
            raise CampaignError(f"unknown campaign {campaign_id!r}")
        return self._record_from_row(row)

    def find_fingerprint(self, fingerprint: str) -> CampaignRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT campaign_id, name, fingerprint, spec, status, priority, created_at "
                "FROM campaigns WHERE fingerprint = ? ORDER BY created_at LIMIT 1",
                (fingerprint,),
            ).fetchone()
        return None if row is None else self._record_from_row(row)

    def list_campaigns(self) -> list[CampaignRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT campaign_id, name, fingerprint, spec, status, priority, created_at "
                "FROM campaigns ORDER BY created_at, campaign_id"
            ).fetchall()
        return [self._record_from_row(row) for row in rows]

    def set_status(self, campaign_id: str, status: str) -> None:
        with self._lock, self._conn:
            updated = self._conn.execute(
                "UPDATE campaigns SET status = ? WHERE campaign_id = ?",
                (status, campaign_id),
            ).rowcount
        if not updated:
            raise CampaignError(f"unknown campaign {campaign_id!r}")

    @staticmethod
    def _record_from_row(row: tuple) -> CampaignRecord:
        return CampaignRecord(
            campaign_id=row[0],
            name=row[1],
            fingerprint=row[2],
            spec=json.loads(row[3]),
            status=row[4],
            priority=int(row[5]),
            created_at=float(row[6]),
        )

    # -- events ------------------------------------------------------------------
    def append_event(
        self,
        campaign_id: str,
        *,
        generation: int,
        iteration: int,
        kind: str,
        payload: Mapping[str, Any],
    ) -> int:
        with self._lock:
            self.get_campaign(campaign_id)
            with self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO events (campaign_id, generation, iteration, kind, payload) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        int(generation),
                        int(iteration),
                        str(kind),
                        # Insertion order is preserved (not sorted) so a result
                        # reloaded from the log re-serializes byte-identically.
                        json.dumps(dict(payload)),
                    ),
                )
            return int(cursor.lastrowid)

    def events(
        self,
        campaign_id: str,
        kinds: tuple[str, ...] | None = None,
        after: int = 0,
    ) -> list[CampaignEvent]:
        self.get_campaign(campaign_id)
        query = (
            "SELECT seq, generation, iteration, kind, payload FROM events "
            "WHERE campaign_id = ?"
        )
        params: list = [campaign_id]
        if after:
            query += " AND seq > ?"
            params.append(int(after))
        if kinds is not None:
            placeholders = ", ".join("?" for _ in kinds)
            query += f" AND kind IN ({placeholders})"
            params.extend(kinds)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY seq", params).fetchall()
        return [
            CampaignEvent(
                campaign_id=campaign_id,
                seq=int(row[0]),
                generation=int(row[1]),
                iteration=int(row[2]),
                kind=row[3],
                payload=json.loads(row[4]),
            )
            for row in rows
        ]

    def latest_generation(self, campaign_id: str) -> int:
        with self._lock:
            self.get_campaign(campaign_id)
            row = self._conn.execute(
                "SELECT max(generation) FROM ("
                "  SELECT generation FROM events WHERE campaign_id = ?"
                "  UNION ALL"
                "  SELECT generation FROM snapshots WHERE campaign_id = ?"
                ")",
                (campaign_id, campaign_id),
            ).fetchone()
        return -1 if row is None or row[0] is None else int(row[0])

    # -- snapshots ---------------------------------------------------------------
    def save_snapshot(
        self, campaign_id: str, *, generation: int, iteration: int, payload: bytes
    ) -> None:
        with self._lock:
            self.get_campaign(campaign_id)
            with self._conn:
                self._conn.execute(
                    "INSERT INTO snapshots "
                    "(campaign_id, generation, iteration, payload, created_at) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        int(generation),
                        int(iteration),
                        sqlite3.Binary(bytes(payload)),
                        time.time(),
                    ),
                )

    def latest_snapshot(self, campaign_id: str) -> CampaignSnapshot | None:
        with self._lock:
            self.get_campaign(campaign_id)
            row = self._conn.execute(
                "SELECT generation, iteration, payload FROM snapshots "
                "WHERE campaign_id = ? ORDER BY snap_id DESC LIMIT 1",
                (campaign_id,),
            ).fetchone()
        if row is None:
            return None
        return CampaignSnapshot(
            campaign_id=campaign_id,
            generation=int(row[0]),
            iteration=int(row[1]),
            payload=bytes(row[2]),
        )

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
