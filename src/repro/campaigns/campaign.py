"""Durable, resumable tuning runs: a :class:`TunerSession` bound to a store.

A :class:`Campaign` is the persistence wrapper around one tuning run.  It is
built from a declarative :class:`CampaignSpec` (what to run: dataset,
scenario, acquisition setup, strategy, budget, seed) and a
:class:`~repro.campaigns.store.CampaignStore` (where to persist it), and
drives the run one iteration at a time:

* every :class:`~repro.core.plan.IterationRecord`,
  :class:`~repro.acquisition.requests.Fulfillment` summary, re-slice and
  persisted span is appended to the event log the moment it lands, through
  one append path that also feeds the campaign's alert monitor;
* every ``checkpoint_every`` iterations a full runtime-state snapshot is
  written — the session checkpoint (:meth:`TunerSession.state_dict
  <repro.core.session.TunerSession.state_dict>`) plus the tuner's
  :meth:`runtime state <repro.core.tuner.SliceTuner.runtime_state>` (sliced
  dataset, provider table with per-provider RNGs and reserves, cost model,
  main RNG position, evaluation seed), pickled as one bundle.

Because specs are declarative and instance construction is deterministic,
:meth:`Campaign.resume` rebuilds the tuner from the spec, restores the
latest snapshot, and continues the loop — the resulting
:class:`~repro.core.plan.TuningResult` is **byte-identical** to an
uninterrupted run, even after ``kill -9``.  Content fingerprints over the
spec give idempotent re-run detection: starting a campaign whose fingerprint
already completed replays the stored result instead of burning budget again.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.campaigns.store import (
    COMPLETED,
    DEFAULT_BUDGET,
    FAILED,
    PAUSED,
    PENDING,
    RUNNING,
    CampaignEvent,
    CampaignLog,
    CampaignRecord,
    CampaignStore,
)
from repro.core.plan import IterationRecord, TuningResult
from repro.core.registry import STRATEGIES
from repro.fairness.report import FairnessReport
from repro.monitor.health import CampaignMonitor
from repro.telemetry import PERSISTED_SPAN_NAMES, get_tracer
from repro.utils.exceptions import CampaignError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import TunerSession
    from repro.core.tuner import SliceTuner
    from repro.engine.cache import ResultCache
    from repro.engine.executor import Executor

_SNAPSHOT_VERSION = 1

#: Hook fired after every persisted iteration: ``(campaign, record)``.
IterationHook = Callable[["Campaign", IterationRecord], None]


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one tuning run.

    The *identity* fields (everything except ``priority`` and
    ``checkpoint_every``) fully determine the run: the same spec always
    builds the same dataset instance, provider table, and tuner, which is
    what makes crash-safe resume and idempotent re-run detection possible.

    Attributes
    ----------
    name:
        Human-readable campaign name (part of the campaign id, not of the
        fingerprint — renaming identical work still deduplicates).
    dataset / scenario / source:
        Instance construction, exactly as the experiment runner understands
        it (``source=None`` uses the scenario's own source kind).
    method / budget / lam / seed:
        What to run: any registered strategy name (stored as its primary
        name, so spellings of one strategy share a fingerprint), the
        acquisition budget, the loss/unfairness weight, and the base
        random seed.
    base_size / validation_size / epochs / curve_points / min_slice_size /
    acquisition_rounds / max_iterations:
        Instance and tuner knobs (mirroring
        :class:`~repro.experiments.config.ExperimentConfig`).
    evaluate:
        When True, the model is trained and evaluated before and after
        acquisition and the reports attached to the result (both survive
        crash/resume).
    discover / reslice_every:
        Dynamic-slices mode: a registered slice discovery method (see
        :mod:`repro.slices.discovery`; stored as its primary name) re-run
        every ``reslice_every`` iterations, re-partitioning the data
        mid-campaign.  Each re-slice is persisted as a durable ``reslice``
        event whose payload carries the content-fingerprinted boundaries,
        so replay and crash-resume stay byte-identical.  ``discover=None``
        defers to the scenario's own defaults (e.g. ``dynamic_slices``);
        both fields are part of the fingerprint.
    priority:
        Scheduling lane for :class:`~repro.campaigns.scheduler.
        CampaignScheduler` — higher runs first.  Not part of the
        fingerprint.
    checkpoint_every:
        Snapshot cadence in iterations (1 = after every iteration).  A
        crash can lose at most ``checkpoint_every - 1`` iterations of
        *snapshot* state; the resumed run re-executes them deterministically
        from the previous snapshot.  Not part of the fingerprint.
    monitor:
        Evaluate the campaign-scope alert rules
        (:func:`repro.monitor.campaign_rules`) against the event log and
        persist transitions as durable ``alert`` events.  Monitoring only
        reads events and appends alerts — it never touches tuner state —
        so results are byte-identical either way, and the flag (like
        ``priority``) is not part of the fingerprint.
    """

    name: str
    dataset: str = "adult_like"
    scenario: str = "basic"
    source: str | None = None
    method: str = "moderate"
    budget: float = DEFAULT_BUDGET
    lam: float = 1.0
    seed: int = 0
    base_size: int = 60
    validation_size: int = 60
    epochs: int = 10
    curve_points: int = 3
    min_slice_size: int = 0
    acquisition_rounds: int = 1
    max_iterations: int = 30
    evaluate: bool = False
    discover: str | None = None
    reslice_every: int = 0
    priority: int = 0
    checkpoint_every: int = 1
    monitor: bool = True

    #: Spec fields that do not contribute to the content fingerprint.
    _NON_IDENTITY = ("name", "priority", "checkpoint_every", "monitor")

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a campaign needs a non-empty name")
        object.__setattr__(self, "method", STRATEGIES.primary(self.method))
        if self.budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {self.budget}")
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.discover is not None:
            from repro.slices.discovery import DISCOVERY_METHODS

            object.__setattr__(
                self, "discover", DISCOVERY_METHODS.primary(self.discover)
            )
            if self.reslice_every < 1:
                raise ConfigurationError(
                    "discover requires reslice_every >= 1, "
                    f"got {self.reslice_every}"
                )
        elif self.reslice_every != 0:
            raise ConfigurationError(
                "reslice_every requires a discover method to be set"
            )

    def fingerprint(self) -> str:
        """Content hash over the identity fields (idempotent re-run key)."""
        identity = {
            key: value
            for key, value in asdict(self).items()
            if key not in self._NON_IDENTITY
        }
        canonical = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def campaign_id(self) -> str:
        """Deterministic id: slug of the name plus a fingerprint prefix."""
        slug = re.sub(r"[^a-z0-9]+", "-", self.name.lower()).strip("-") or "campaign"
        return f"{slug}-{self.fingerprint()[:10]}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (stored on the campaign record)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{key: value for key, value in data.items() if key in known})


def build_campaign_tuner(
    spec: CampaignSpec,
    executor: "Executor | None" = None,
    result_cache: "ResultCache | None" = None,
) -> "SliceTuner":
    """Deterministically build the tuner a spec describes.

    Constructs the dataset instance and named provider table through the
    experiment runner (same path as ``run_method``), so a spec names work
    reproducibly: two calls build byte-identical tuners.  ``executor`` lets
    the scheduler share one engine executor (and result cache) across every
    campaign it multiplexes.
    """
    # Imported lazily: campaigns sit above the experiments layer for
    # instance construction, while experiments/runner.py exposes the
    # campaign_suite scenario — the lazy import breaks the cycle.
    from repro.core.tuner import SliceTuner, SliceTunerConfig
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import prepare_named_instance
    from repro.experiments.scenarios import build_scenario

    extra: dict[str, Any] = {"base_size": spec.base_size}
    if spec.source is not None:
        extra["source"] = spec.source
    config = ExperimentConfig(
        dataset=spec.dataset,
        scenario=spec.scenario,
        budget=spec.budget,
        methods=(spec.method,),
        lam=spec.lam,
        trials=1,
        validation_size=spec.validation_size,
        min_slice_size=spec.min_slice_size,
        curve_points=spec.curve_points,
        curve_repeats=1,
        epochs=spec.epochs,
        seed=spec.seed,
        extra=extra,
    )
    sliced, sources = prepare_named_instance(config, seed=spec.seed)
    # Dynamic-slices knobs: an explicit spec wins; otherwise the scenario's
    # own defaults apply (the dynamic_slices/drifting_slices scenarios carry
    # a discovery method and cadence of their own).
    scenario = build_scenario(spec.scenario)
    if spec.discover is not None:
        discover, reslice_every = spec.discover, spec.reslice_every
    else:
        discover, reslice_every = scenario.discover, scenario.reslice_every
    return SliceTuner(
        sliced,
        sources=sources,
        trainer_config=config.training_config(),
        curve_config=config.curve_config(),
        config=SliceTunerConfig(
            lam=spec.lam,
            min_slice_size=spec.min_slice_size,
            max_iterations=spec.max_iterations,
            acquisition_rounds=spec.acquisition_rounds,
            discover=discover,
            reslice_every=reslice_every,
        ),
        random_state=spec.seed + 20_000,
        executor=executor,
        result_cache=result_cache,
    )


def _iteration_of(fulfillment_summary: Mapping[str, Any]) -> int:
    """Iteration an acquisition-service fulfillment belongs to (from its tag)."""
    tag = str(fulfillment_summary.get("tag", ""))
    if tag.startswith("iteration:"):
        try:
            return int(tag.split(":", 1)[1])
        except ValueError:
            return -1
    if tag == "min_slice_size":
        return 0
    return -1


class Campaign:
    """One durable tuning run bound to a :class:`CampaignStore`.

    Create campaigns with :meth:`start` (new or deduplicated by
    fingerprint) or :meth:`resume` (rebuild from the store after a pause or
    crash), then drive them with :meth:`run` — or iteration-by-iteration
    with :meth:`advance`, which is how the
    :class:`~repro.campaigns.scheduler.CampaignScheduler` multiplexes many
    campaigns over one engine executor.
    """

    def __init__(
        self,
        store: CampaignStore,
        spec: CampaignSpec,
        campaign_id: str,
        executor: "Executor | None" = None,
        result_cache: "ResultCache | None" = None,
    ) -> None:
        self.store = store
        self.spec = spec
        self.campaign_id = campaign_id
        self.generation = 0
        self.reused = False
        self.tuner: "SliceTuner | None" = None
        self.session: "TunerSession | None" = None
        self._executor = executor
        self._result_cache = result_cache
        self._records: Iterator[IterationRecord] | None = None
        self._initial_report: FairnessReport | None = None
        self._result: TuningResult | None = None
        self._pause_requested = False
        self._since_checkpoint = 0
        self._iteration_hooks: list[IterationHook] = []
        self._monitor: CampaignMonitor | None = None

    # -- construction ------------------------------------------------------------
    @classmethod
    def start(
        cls,
        store: CampaignStore,
        spec: CampaignSpec,
        executor: "Executor | None" = None,
        result_cache: "ResultCache | None" = None,
    ) -> "Campaign":
        """Create (or deduplicate) a campaign for ``spec``.

        If a campaign with the same content fingerprint already exists the
        stored one is returned (``campaign.reused`` is True): completed
        campaigns replay their persisted result without re-running anything;
        unfinished ones continue from their latest snapshot.
        """
        fingerprint = spec.fingerprint()
        existing = store.find_fingerprint(fingerprint)
        if existing is not None:
            campaign = cls.resume(
                store,
                existing.campaign_id,
                executor=executor,
                result_cache=result_cache,
            )
            campaign.reused = True
            return campaign
        campaign_id = spec.campaign_id()
        store.create_campaign(
            CampaignRecord(
                campaign_id=campaign_id,
                name=spec.name,
                fingerprint=fingerprint,
                spec=spec.to_dict(),
                status=PENDING,
                priority=spec.priority,
            )
        )
        return cls(
            store, spec, campaign_id, executor=executor, result_cache=result_cache
        )

    @classmethod
    def resume(
        cls,
        store: CampaignStore,
        campaign_id: str,
        executor: "Executor | None" = None,
        result_cache: "ResultCache | None" = None,
    ) -> "Campaign":
        """Rebind a stored campaign (after a pause, crash, or completion).

        The heavy lifting — rebuilding the tuner from the spec and restoring
        the latest snapshot — happens lazily on the first :meth:`advance`,
        so resuming a completed campaign costs nothing but the result load.
        """
        record = store.get_campaign(campaign_id)
        spec = CampaignSpec.from_dict(record.spec)
        campaign = cls(
            store, spec, campaign_id, executor=executor, result_cache=result_cache
        )
        if record.status == COMPLETED:
            campaign._result = campaign._load_stored_result()
        return campaign

    # -- hooks -------------------------------------------------------------------
    def add_iteration_hook(self, hook: IterationHook) -> "Campaign":
        """Fire ``hook(campaign, record)`` after every persisted iteration."""
        self._iteration_hooks.append(hook)
        return self

    # -- introspection -----------------------------------------------------------
    @property
    def is_done(self) -> bool:
        """True once a final result exists (completed or replayed)."""
        return self._result is not None

    @property
    def spent(self) -> float:
        """Budget spent so far in the live run (0.0 before it starts)."""
        if self.session is not None and self._result is None:
            return self.session.result().spent
        if self._result is not None:
            return self._result.spent
        return 0.0

    @property
    def spent_fraction(self) -> float:
        """Fraction of the budget spent (1.0 when the budget is zero)."""
        return self.spent / self.spec.budget if self.spec.budget > 0 else 1.0

    @property
    def slice_generation(self) -> int:
        """Current slice generation of the live session (0 before discovery)."""
        if self.session is not None:
            return self.session.slice_generation
        return 0

    def result(self) -> TuningResult:
        """The final result; raises until the campaign completed."""
        if self._result is None:
            raise CampaignError(
                f"campaign {self.campaign_id!r} has not completed; "
                f"call run() or advance() until done"
            )
        return self._result

    def partial_result(self) -> TuningResult | None:
        """The in-flight result of a live run (None before it starts)."""
        if self._result is not None:
            return self._result
        if self.session is not None:
            return self.session.result()
        return None

    # -- driving -----------------------------------------------------------------
    def run(self, max_steps: int | None = None) -> TuningResult | None:
        """Drive the campaign to completion (or pause), persisting each step.

        Returns the final :class:`~repro.core.plan.TuningResult`, or
        ``None`` when the run paused first (an explicit :meth:`pause`
        request or the ``max_steps`` cap) — the paused state is
        checkpointed, so a later :meth:`resume` continues exactly where
        this call stopped.
        """
        steps = 0
        while True:
            if self._pause_requested:
                self._enter_paused()
                return None
            record = self.advance()
            if record is None:
                return self._result
            steps += 1
            if max_steps is not None and steps >= max_steps:
                self._enter_paused()
                return None

    def advance(self) -> IterationRecord | None:
        """Run one acquisition iteration and persist it; ``None`` when done.

        The first call starts (or restores) the underlying session; the
        call that drains the stream finalizes the campaign — final
        evaluation, ``completed`` event, status flip — and returns ``None``.
        """
        if self._result is not None:
            return None
        try:
            self._ensure_session()
            record = next(self._records, None)  # type: ignore[arg-type]
        except Exception:
            # Both a failing iteration and a failing session *build* (bad
            # dataset, unrestorable snapshot, ...) leave the campaign FAILED
            # — otherwise a daemon's clients would watch it sit "pending"
            # forever.  FAILED campaigns stay resumable.
            self.store.set_status(self.campaign_id, FAILED)
            raise
        if record is None:
            self._finalize()
            return None
        self._append("iteration", record.iteration, record.to_dict())
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.spec.checkpoint_every:
            self.checkpoint()
        for hook in self._iteration_hooks:
            hook(self, record)
        return record

    def pause(self) -> None:
        """Ask :meth:`run` to stop after the current iteration.

        Safe to call from a hook; the paused state is checkpointed, and
        :meth:`resume` (in this process or a later one) continues the run.
        """
        self._pause_requested = True

    def suspend(self) -> bool:
        """Checkpoint (if needed) and mark the campaign paused *right now*.

        Unlike :meth:`pause` — a request honored by :meth:`run` at the next
        iteration boundary — ``suspend`` acts immediately, so it must only
        be called *between* iterations (the scheduler's graceful drain calls
        it under the scheduling lock, which is exactly that boundary).  A
        campaign suspended this way resumes byte-identically via
        :meth:`resume`, in this process or after a daemon restart.  Returns
        False (and does nothing) once the campaign already completed.
        """
        if self._result is not None:
            return False
        if self.session is not None and self._since_checkpoint:
            self.checkpoint()
        self.store.set_status(self.campaign_id, PAUSED)
        return True

    def checkpoint(self) -> None:
        """Write a full runtime-state snapshot of the live run."""
        if self.session is None or self.tuner is None:
            raise CampaignError("no live run to checkpoint")
        bundle = {
            "version": _SNAPSHOT_VERSION,
            "tuner": self.tuner.runtime_state(),
            "session": self.session.state_dict(),
            "initial_report": (
                None
                if self._initial_report is None
                else self._initial_report.to_dict()
            ),
        }
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        self.store.save_snapshot(
            self.campaign_id,
            generation=self.generation,
            iteration=int(bundle["session"]["iteration"]),
            payload=payload,
        )
        self._since_checkpoint = 0

    # -- internals ---------------------------------------------------------------
    def _ensure_session(self) -> None:
        if self.session is not None:
            return
        self.generation = self.store.latest_generation(self.campaign_id) + 1
        self.tuner = build_campaign_tuner(
            self.spec, executor=self._executor, result_cache=self._result_cache
        )
        self.session = self.tuner.session()
        self.session.add_hook("fulfillment", self._persist_fulfillment)
        self.session.add_hook("reslice", self._persist_reslice)
        # Scope the session's spans by campaign id so concurrent campaigns
        # sharing the process tracer keep disjoint span trees, and persist
        # the per-iteration skeleton when tracing is live.
        self.session.set_trace_scope(self.campaign_id)
        if get_tracer().enabled:
            self.session.add_hook("span", self._persist_span)
        snapshot = self.store.latest_snapshot(self.campaign_id)
        resume_iteration: int | None = None
        if snapshot is not None:
            bundle = pickle.loads(snapshot.payload)
            if int(bundle.get("version", -1)) != _SNAPSHOT_VERSION:
                raise CampaignError(
                    f"unsupported campaign snapshot version "
                    f"{bundle.get('version')!r} for {self.campaign_id!r}"
                )
            self.tuner.restore_runtime_state(bundle["tuner"])
            self.session.load_state_dict(bundle["session"])
            resume_iteration = int(bundle["session"]["iteration"])
            if bundle.get("initial_report") is not None:
                self._initial_report = FairnessReport.from_dict(
                    bundle["initial_report"]
                )
            self._records = self.session.resume()
        else:
            if self.spec.evaluate:
                self._initial_report = self.tuner.evaluate()
                report = self._initial_report.to_dict()
                self._append("evaluate", -1, {"stage": "initial", **report})
            self._records = self.session.stream(
                self.spec.budget, strategy=self.spec.method, lam=self.spec.lam
            )
        if self.spec.monitor:
            # The monitor folds this campaign's own durable events (never
            # tuner state), so it can be rebuilt from the log: warm it up
            # with the replayed pre-snapshot history (the re-executed tail
            # re-derives its samples live, byte-identically).  From here on
            # _append feeds it; the initial evaluation's events stay out.
            self._monitor = CampaignMonitor(self.campaign_id)
            if resume_iteration is not None:
                self._monitor.warmup(
                    CampaignLog.read(self.store, self.campaign_id).events,
                    resume_iteration,
                )
        self.store.set_status(self.campaign_id, RUNNING)

    def _persist_fulfillment(self, fulfillment) -> None:
        summary = fulfillment.summary()
        self._append("fulfillment", _iteration_of(summary), summary)

    def _persist_span(self, span) -> None:
        """Persist one completed span as a durable ``telemetry`` event.

        Only the bounded :data:`~repro.telemetry.PERSISTED_SPAN_NAMES`
        vocabulary is stored (the per-iteration skeleton), so the event log
        stays proportional to iterations, not trainings.  The iteration
        rides in the span's baggage, stamped by the session.
        """
        if span.name not in PERSISTED_SPAN_NAMES:
            return
        iteration = int(span.baggage.get("iteration", -1))
        self._append("telemetry", iteration, span.to_dict())

    def _persist_reslice(self, event) -> None:
        self._append(
            "reslice",
            int(event.iteration),
            {
                "slice_generation": int(event.slice_generation),
                "method": event.method,
                "fingerprint": event.fingerprint,
                "slice_names": list(event.slice_names),
            },
        )

    def _enter_paused(self) -> None:
        self._pause_requested = False
        if self.session is not None and self._result is None:
            if self._since_checkpoint:
                self.checkpoint()
            self.store.set_status(self.campaign_id, PAUSED)

    def _append(self, kind: str, iteration: int, payload: dict[str, Any]) -> None:
        """Persist one event under this generation and feed it to the monitor.

        The alerts an ``iteration`` event triggers are appended straight
        after it, before the checkpoint, so a snapshot boundary never
        splits an iteration from its alerts.
        """
        seq = self.store.append_event(
            self.campaign_id,
            generation=self.generation,
            iteration=iteration,
            kind=kind,
            payload=payload,
        )
        if self._monitor is None or kind == "alert":
            return
        event = CampaignEvent(
            self.campaign_id, seq, self.generation, iteration, kind, payload
        )
        for alert in self._monitor.fold((event,)):
            self._append("alert", alert.iteration, alert.to_dict())

    def _finalize(self) -> None:
        assert self.session is not None and self.tuner is not None
        result = self.session.result()
        if self.spec.evaluate:
            result.initial_report = self._initial_report
            result.final_report = self.tuner.evaluate()
        self._result = result
        if self._monitor is not None:
            for alert in self._monitor.finalize():
                self._append("alert", alert.iteration, alert.to_dict())
        self._append("completed", -1, result.to_dict())
        self.store.set_status(self.campaign_id, COMPLETED)
        self._records = None

    def _load_stored_result(self) -> TuningResult:
        completed = CampaignLog.read(
            self.store, self.campaign_id, kinds=("completed",)
        ).events
        if not completed:
            raise CampaignError(
                f"campaign {self.campaign_id!r} is marked completed but has "
                f"no stored result event"
            )
        return TuningResult.from_dict(completed[-1].payload)
