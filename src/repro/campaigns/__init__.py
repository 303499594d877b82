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

from repro.campaigns.campaign import (
    Campaign,
    CampaignSpec,
    build_campaign_tuner,
    campaign_summary,
)
from repro.campaigns.scheduler import (
    CampaignScheduler,
    SchedulerTick,
)
from repro.campaigns.store import (
    COMPLETED,
    FAILED,
    PAUSED,
    PENDING,
    RESUMABLE,
    RUNNING,
    CampaignEvent,
    CampaignRecord,
    CampaignSnapshot,
    CampaignStore,
    InMemoryStore,
    SqliteStore,
    replay_events,
)

__all__ = [
    "Campaign",
    "CampaignEvent",
    "CampaignRecord",
    "CampaignScheduler",
    "CampaignSnapshot",
    "CampaignSpec",
    "CampaignStore",
    "InMemoryStore",
    "SchedulerTick",
    "SqliteStore",
    "build_campaign_tuner",
    "campaign_summary",
    "replay_events",
    "COMPLETED",
    "FAILED",
    "PAUSED",
    "PENDING",
    "RESUMABLE",
    "RUNNING",
]
