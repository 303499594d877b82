"""Durable campaigns: persistent, resumable, multiplexed tuning runs.

The campaign subsystem adds three layers on top of the streaming session
API:

* :mod:`repro.campaigns.store` — :class:`CampaignStore` backends
  (:class:`InMemoryStore`, :class:`SqliteStore`) persisting an append-only
  event log plus periodic runtime-state snapshots;
* :mod:`repro.campaigns.campaign` — :class:`Campaign`, binding one
  :class:`~repro.core.session.TunerSession` to a store with crash-safe
  ``resume()`` (byte-identical to an uninterrupted run) and idempotent
  re-run detection via spec content fingerprints;
* :mod:`repro.campaigns.scheduler` — :class:`CampaignScheduler`,
  multiplexing N concurrent campaigns over one shared engine executor with
  budget-fair round-robin inside priority lanes.
"""

from repro._lazy import lazy_exports

#: Campaign lifecycle states (here, so a client can test one without the store).
PENDING = "pending"
RUNNING = "running"
PAUSED = "paused"
COMPLETED = "completed"
FAILED = "failed"

#: Statuses a campaign can be resumed from (``completed`` replays its result).
RESUMABLE = (PENDING, RUNNING, PAUSED, FAILED)

#: Statuses that end a live event stream (a paused campaign may resume later).
TERMINAL_STATUSES = (COMPLETED, FAILED, PAUSED)

_EXPORTS = {
    "Campaign": ".campaign",
    "CampaignEvent": ".store",
    "CampaignRecord": ".store",
    "CampaignScheduler": ".scheduler",
    "CampaignSnapshot": ".store",
    "CampaignSpec": ".campaign",
    "CampaignStore": ".store",
    "InMemoryStore": ".store",
    "SchedulerTick": ".scheduler",
    "SqliteStore": ".store",
    "build_campaign_tuner": ".campaign",
    "campaign_summary": ".store",
    "replay_events": ".store",
}
__all__ = [*_EXPORTS, "COMPLETED", "FAILED", "PAUSED", "PENDING", "RESUMABLE", "RUNNING"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
