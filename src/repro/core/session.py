"""Streaming tuning sessions: the propose-acquire-refit loop, step by step.

:class:`TunerSession` is the engine behind :meth:`SliceTuner.run
<repro.core.tuner.SliceTuner.run>`.  Where ``run`` executes a whole strategy
and hands back one :class:`~repro.core.plan.TuningResult`, a session exposes
the loop itself::

    session = TunerSession(tuner)
    for record in session.stream(budget=2000, strategy="aggressive"):
        print(record.iteration, record.acquired)
        if record.spent == 0:
            break                       # the caller can stop at any point
    result = session.result()           # everything acquired so far

Sessions add three things on top of the batch API:

* **Lifecycle hooks** — ``on_fulfillment`` fires per delivered fulfillment,
  ``on_acquire`` / ``on_iteration`` fire per batch, and ``on_evaluate``
  around the before/after evaluations, so progress can be logged or shipped
  to a dashboard while the run is in flight.
* **Per-fulfillment events** — every run owns an
  :class:`~repro.acquisition.service.AcquisitionService` routing its
  acquisitions across the tuner's named providers;
  :meth:`TunerSession.stream_events` yields each
  :class:`~repro.acquisition.requests.Fulfillment` (partial deliveries, dry
  pools, failover provenance) alongside the iteration records.
* **Early-stop predicates** — ``stop_when=lambda record: ...`` (or
  :meth:`TunerSession.add_early_stop`) ends the loop as soon as a predicate
  is satisfied, e.g. stop once the imbalance ratio is close to 1.
* **Checkpointing** — :meth:`TunerSession.state_dict` snapshots the
  orchestration state (budget spent, iteration index, the strategy's
  schedule state, and all records); :meth:`TunerSession.load_state_dict`
  plus :meth:`TunerSession.resume` continue a paused run.  The dataset
  itself is owned by the tuner; persist it separately if the process exits.

Any strategy name registered in :mod:`repro.core.registry` can be streamed,
including user-defined registrations.

Evaluation trials and the per-iteration curve refits inside curve-based
strategies run through the tuner's
:class:`~repro.engine.executor.Executor` (exposed to strategies as
``TunerState.executor``), so the serial/process-pool choice and the result
cache apply to streaming runs exactly as they do to batch runs.  Strategies
that train their own reward models inline (e.g. the bandit's
``state.train_model()``) still draw on the shared RNG stream and bypass the
executor.

Each :meth:`TunerSession.stream` call owns its run state, but all runs of
one session mutate the same tuner (dataset, cost model, RNG) — run them to
completion one at a time; :meth:`TunerSession.result` / ``state_dict`` refer
to the most recently started run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Union

from repro.acquisition.budget import BudgetLedger
from repro.acquisition.cost import TableCost
from repro.acquisition.requests import SKIPPED, Fulfillment
from repro.acquisition.router import AcquisitionRouter
from repro.acquisition.service import AcquisitionService
from repro.acquisition.source import DiscoverySource
from repro.core.plan import AcquisitionPlan, IterationRecord, TuningResult
from repro.core.registry import get_strategy
from repro.core.strategy_api import AcquisitionStrategy, TunerState
from repro.engine.factories import describe_factory
from repro.engine.job import TrainingJob, stable_seed
from repro.slices.discovery import get_discovery_method
from repro.telemetry import Span, get_registry, get_tracer
from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tuner import SliceTuner
    from repro.fairness.report import FairnessReport

#: Hook signatures (see :meth:`TunerSession.add_hook`).
IterationHook = Callable[[IterationRecord], None]
EvaluateHook = Callable[[str, "FairnessReport"], None]
FulfillmentHook = Callable[[Fulfillment], None]
SpanHook = Callable[[Span], None]
EarlyStop = Callable[[IterationRecord], bool]

#: Default trace scopes; only used for in-process span routing, so a plain
#: process-local counter is fine (campaigns override with their campaign id).
_scope_counter = itertools.count(1)

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FulfillmentEvent:
    """One fulfillment landing mid-run (see :meth:`TunerSession.stream_events`).

    Attributes
    ----------
    iteration:
        The iteration whose batch the fulfillment belongs to (0 for the
        minimum-slice-size top-up).
    fulfillment:
        The full :class:`~repro.acquisition.requests.Fulfillment`, including
        the delivered dataset, shortfall, and provenance.
    """

    iteration: int
    fulfillment: Fulfillment

    kind: str = "fulfillment"


@dataclass(frozen=True)
class IterationEvent:
    """One completed acquisition batch (the strategy has digested it)."""

    record: IterationRecord

    kind: str = "iteration"


@dataclass(frozen=True)
class ResliceEvent:
    """One dynamic re-slice: discovery re-ran and re-partitioned the data.

    Emitted by sessions running with ``SliceTunerConfig.discover`` set,
    after the boundary iteration's record and before the next iteration's
    proposals.  The boundaries are content-fingerprinted (see
    :meth:`~repro.slices.discovery.SliceDiscoveryMethod.fingerprint`), so a
    crash-resumed run that re-discovers the same partition emits a
    byte-identical event — the property the campaign store's
    ``replay_events`` relies on.

    Attributes
    ----------
    iteration:
        The completed iteration after which discovery re-ran.
    slice_generation:
        1-based generation counter of the slice partition (0 = the initial,
        static slices).
    method:
        Registry name of the discovery method.
    fingerprint:
        Content hash of the discovered boundaries.
    slice_names:
        Names of the discovered slices, in assignment order.
    """

    iteration: int
    slice_generation: int
    method: str
    fingerprint: str
    slice_names: tuple[str, ...]

    kind: str = "reslice"


#: Everything :meth:`TunerSession.stream_events` can yield.
SessionEvent = Union[FulfillmentEvent, IterationEvent, ResliceEvent]


@dataclass
class _RunContext:
    """The mutable state of one tuning run (one stream/run invocation)."""

    strategy: AcquisitionStrategy
    state: TunerState
    result: TuningResult
    lam: float
    iteration: int = 0
    slice_generation: int = 0
    last_reslice_iteration: int = -1
    reslice_log: list[ResliceEvent] = dataclasses_field(default_factory=list)


class TunerSession:
    """A stateful, step-wise tuning run over one :class:`SliceTuner`.

    Parameters
    ----------
    tuner:
        The orchestrator owning the dataset, source, estimator, cost model,
        and evaluation protocol.
    on_iteration / on_acquire / on_evaluate / on_fulfillment:
        Optional hooks; see :meth:`add_hook`.
    """

    def __init__(
        self,
        tuner: "SliceTuner",
        on_iteration: IterationHook | None = None,
        on_acquire: IterationHook | None = None,
        on_evaluate: EvaluateHook | None = None,
        on_fulfillment: FulfillmentHook | None = None,
    ) -> None:
        self.tuner = tuner
        self._hooks: dict[str, list[Callable]] = {
            "iteration": [on_iteration] if on_iteration else [],
            "acquire": [on_acquire] if on_acquire else [],
            "evaluate": [on_evaluate] if on_evaluate else [],
            "fulfillment": [on_fulfillment] if on_fulfillment else [],
            "reslice": [],
            "span": [],
        }
        self._early_stops: list[EarlyStop] = []
        #: Baggage scope stamped on every span this session opens; spans
        #: carrying a different scope (another session sharing the tracer)
        #: never reach this session's ``span`` hooks.
        self._scope = f"session-{next(_scope_counter)}"
        #: The most recently started run (stream()/load_state_dict()).
        self._run: _RunContext | None = None

    # -- hooks and early stops ---------------------------------------------------
    def add_hook(self, event: str, hook: Callable) -> "TunerSession":
        """Register a hook; ``event`` is ``fulfillment``, ``acquire``, ``iteration``, ``evaluate``, ``reslice``, or ``span``.

        ``fulfillment`` hooks fire with every
        :class:`~repro.acquisition.requests.Fulfillment` the moment the
        acquisition service applies it (so partial deliveries and dry pools
        are observable mid-batch); ``acquire`` hooks fire right after a
        batch lands in the dataset; ``iteration`` hooks fire once the
        strategy has digested the batch; ``evaluate`` hooks fire as
        ``(stage, report)`` around the before/after evaluations of
        :meth:`run`; ``reslice`` hooks fire with a :class:`ResliceEvent`
        every time dynamic discovery re-partitions the data; ``span`` hooks
        fire with every completed :class:`~repro.telemetry.Span` belonging
        to this session's runs (only while a live tracer is installed —
        see :func:`repro.telemetry.configure`).  Returns ``self`` so calls
        chain.
        """
        if event not in self._hooks:
            raise ConfigurationError(
                f"unknown hook event {event!r}; expected one of "
                f"{tuple(self._hooks)}"
            )
        self._hooks[event].append(hook)
        return self

    def add_early_stop(self, predicate: EarlyStop) -> "TunerSession":
        """Stop streaming as soon as ``predicate(record)`` is True."""
        self._early_stops.append(predicate)
        return self

    def on_span(self, hook: SpanHook) -> "TunerSession":
        """Shorthand for ``add_hook("span", hook)``."""
        return self.add_hook("span", hook)

    def set_trace_scope(self, scope: str) -> "TunerSession":
        """Stamp this session's spans with ``scope`` (baggage ``scope`` key).

        Concurrent sessions share one process-wide tracer; the scope is how
        each session (and each campaign, which sets its campaign id here)
        tells its own spans apart.  Returns ``self`` so calls chain.
        """
        self._scope = str(scope)
        return self

    def _fire(self, event: str, *args) -> None:
        for hook in self._hooks[event]:
            hook(*args)

    def _dispatch_span(self, span: Span) -> None:
        """Tracer listener: forward this session's completed spans to hooks."""
        if span.baggage.get("scope") != self._scope:
            return
        self._fire("span", span)

    # -- the streaming API -------------------------------------------------------
    def stream(
        self,
        budget: float,
        strategy: str | AcquisitionStrategy = "moderate",
        lam: float | None = None,
        stop_when: EarlyStop | Iterable[EarlyStop] | None = None,
    ) -> Iterator[IterationRecord]:
        """Run a strategy, yielding each :class:`IterationRecord` as it lands.

        Parameters
        ----------
        budget:
            Total data acquisition budget ``B``.
        strategy:
            A registered strategy name (see
            :func:`repro.core.registry.available_strategies`) or an
            :class:`~repro.core.strategy_api.AcquisitionStrategy` instance.
        lam:
            Loss/unfairness weight; defaults to the tuner's configured value.
        stop_when:
            Early-stop predicate(s) for this run, in addition to any added
            through :meth:`add_early_stop`.

        The generator mutates the tuner's dataset as it goes; breaking out
        early keeps everything acquired so far, and :meth:`result` /
        :meth:`state_dict` reflect the partial run.
        """
        run = self._begin(budget, strategy, lam)
        if stop_when is not None:
            stops = [stop_when] if callable(stop_when) else list(stop_when)
        else:
            stops = []
        return self._drive(run, extra_stops=stops)

    def stream_events(
        self,
        budget: float,
        strategy: str | AcquisitionStrategy = "moderate",
        lam: float | None = None,
        stop_when: EarlyStop | Iterable[EarlyStop] | None = None,
    ) -> Iterator[SessionEvent]:
        """Like :meth:`stream`, but yields per-fulfillment events too.

        Every :class:`~repro.acquisition.requests.Fulfillment` produced by
        the run's acquisition service is yielded as a
        :class:`FulfillmentEvent` (in delivery order), followed by an
        :class:`IterationEvent` once the strategy has digested the batch —
        so partial deliveries, dry pools, and multi-provider failover are
        first-class observations instead of exceptions::

            for event in session.stream_events(budget=500, strategy="moderate"):
                if event.kind == "fulfillment":
                    f = event.fulfillment
                    print(f.slice_name, f.status, f.provenance, f.shortfall)
                else:
                    print("iteration", event.record.iteration, "done")

        Breaking out early keeps everything acquired so far, exactly as with
        :meth:`stream`.
        """
        records = self.stream(budget, strategy=strategy, lam=lam, stop_when=stop_when)
        run = self._run
        assert run is not None and run.state.service is not None
        fulfillments = run.state.service.fulfillments
        reslices = run.reslice_log
        seen = 0
        seen_reslices = 0
        for record in records:
            for reslice in reslices[seen_reslices:]:
                yield reslice
            seen_reslices = len(reslices)
            for fulfillment in fulfillments[seen:]:
                yield FulfillmentEvent(
                    iteration=record.iteration, fulfillment=fulfillment
                )
            seen = len(fulfillments)
            yield IterationEvent(record=record)

    def resume(self) -> Iterator[IterationRecord]:
        """Continue a run restored with :meth:`load_state_dict`."""
        if self._run is None:
            raise ConfigurationError(
                "nothing to resume: call stream() or load_state_dict() first"
            )
        return self._drive(self._run, extra_stops=[])

    def run(
        self,
        budget: float,
        strategy: str | AcquisitionStrategy = "moderate",
        lam: float | None = None,
        evaluate: bool = True,
    ) -> TuningResult:
        """Batch counterpart of :meth:`stream`: drain the loop, return the result.

        When ``evaluate`` is True the model is trained and evaluated before
        and after acquisition and the reports attached (firing ``evaluate``
        hooks with stages ``"initial"`` and ``"final"``).
        """
        initial_report = None
        if evaluate:
            initial_report = self.tuner.evaluate()
            self._fire("evaluate", "initial", initial_report)
        for _ in self.stream(budget, strategy=strategy, lam=lam):
            pass
        result = self.result()
        result.initial_report = initial_report
        if evaluate:
            result.final_report = self.tuner.evaluate()
            self._fire("evaluate", "final", result.final_report)
        return result

    def result(self) -> TuningResult:
        """The (possibly partial) result of the most recently started run."""
        if self._run is None:
            raise ConfigurationError("no run in progress: call stream() first")
        return self._run.result

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Snapshot of the orchestration state of the current run.

        Captures the strategy (name + schedule state), budget accounting,
        iteration index, and the result so far — everything needed by
        :meth:`load_state_dict` to continue the loop.  The tuner's dataset
        and RNG are *not* captured; a faithful resume needs the same live
        tuner (or a dataset restored by other means).
        """
        run = self._run
        if run is None:
            raise ConfigurationError("no run in progress: call stream() first")
        return {
            "version": _CHECKPOINT_VERSION,
            "strategy": run.strategy.name,
            "strategy_state": run.strategy.state_dict(),
            "lam": run.lam,
            "budget": run.state.ledger.total,
            "spent": run.state.ledger.spent,
            "iteration": run.iteration,
            "slice_generation": run.slice_generation,
            "last_reslice_iteration": run.last_reslice_iteration,
            "result": run.result.to_dict(),
        }

    def load_state_dict(
        self,
        state: Mapping[str, Any],
        strategy: AcquisitionStrategy | None = None,
    ) -> None:
        """Restore a run captured by :meth:`state_dict`; continue via :meth:`resume`.

        The strategy is re-created from the registry by the checkpointed name
        and its run state restored via ``strategy.load_state_dict`` (``begin``
        is *not* called, so no checkpointed state is clobbered and no model is
        trained during the restore).  For a run started from an unregistered
        :class:`~repro.core.strategy_api.AcquisitionStrategy` instance, pass
        an equivalent instance as ``strategy``.
        """
        if int(state.get("version", -1)) != _CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported session checkpoint version {state.get('version')!r}"
            )
        if strategy is None:
            strategy = get_strategy(str(state["strategy"]))
        elif strategy.name != state["strategy"]:
            raise ConfigurationError(
                f"checkpoint was taken with strategy {state['strategy']!r} "
                f"but {strategy.name!r} was supplied"
            )
        ledger = BudgetLedger(total=float(state["budget"]))
        ledger.spent = float(state["spent"])
        result = TuningResult.from_dict(state["result"])
        run = _RunContext(
            strategy=strategy,
            state=self._make_state(ledger),
            result=result,
            lam=float(state["lam"]),
            iteration=int(state["iteration"]),
            slice_generation=int(state.get("slice_generation", 0)),
            last_reslice_iteration=int(state.get("last_reslice_iteration", -1)),
        )
        run.state.iteration = run.iteration
        run.state.records = result.iterations
        strategy.load_state_dict(state.get("strategy_state", {}))
        self._run = run

    # -- internals ---------------------------------------------------------------
    def _make_state(self, ledger: BudgetLedger) -> TunerState:
        tuner = self.tuner
        router = AcquisitionRouter(tuner.sources, default=tuner.provider_order)
        service = AcquisitionService(
            router,
            cost_model=tuner.cost_model,
            ledger=ledger,
            sliced=tuner.sliced,
        )
        # The callback holds the hook list, not the session: session -> state
        # -> service -> callback -> session would be a reference cycle that
        # keeps each finished run's datasets alive until the cyclic
        # collector next runs.
        hooks = self._hooks["fulfillment"]

        def fire(fulfillment: Fulfillment) -> None:
            for hook in hooks:
                hook(fulfillment)

        service.add_callback(fire)
        return TunerState(
            sliced=tuner.sliced,
            source=tuner.source,
            estimator=tuner.estimator,
            cost_model=tuner.cost_model,
            ledger=ledger,
            config=tuner.config,
            model_factory=tuner.model_factory,
            trainer_config=tuner.trainer_config,
            rng=tuner._rng,
            executor=tuner.executor,
            service=service,
        )

    def _begin(
        self,
        budget: float,
        strategy: str | AcquisitionStrategy,
        lam: float | None,
    ) -> _RunContext:
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        elif not isinstance(strategy, AcquisitionStrategy):
            raise ConfigurationError(
                f"strategy must be a registered name or an "
                f"AcquisitionStrategy, got {type(strategy).__name__}"
            )
        lam = self.tuner.config.lam if lam is None else float(lam)
        result = TuningResult(
            method=strategy.name,
            lam=lam if strategy.uses_lam else 0.0,
            budget=float(budget),
        )
        result.total_acquired = {name: 0 for name in self.tuner.sliced.names}
        run = _RunContext(
            strategy=strategy,
            state=self._make_state(BudgetLedger(total=float(budget))),
            result=result,
            lam=lam,
        )
        run.state.records = result.iterations
        strategy.begin(run.state)
        self._run = run
        return run

    def _drive(
        self, run: _RunContext, extra_stops: list[EarlyStop]
    ) -> Iterator[IterationRecord]:
        strategy, state, result = run.strategy, run.state, run.result
        stops = [*self._early_stops, *extra_stops]
        tuner = self.tuner
        tracer = get_tracer()
        registry = get_registry()
        listening = tracer.enabled
        if listening:
            tracer.add_listener(self._dispatch_span)

        def finish(record: IterationRecord) -> bool:
            """Yield-side bookkeeping; True when an early stop fired."""
            result.spent = state.ledger.spent
            return any(predicate(record) for predicate in stops)

        try:
            # Steps 3-6 of Algorithm 1: top every slice up to the minimum
            # size L.
            if (
                run.iteration == 0
                and strategy.enforce_min_slice_size
                and tuner.config.min_slice_size > 0
            ):
                with tracer.span(
                    "session.top_up",
                    attributes={"strategy": strategy.name},
                    baggage={"scope": self._scope, "iteration": 0},
                ) as span:
                    record = self._top_up_minimum_sizes(run)
                    if record is not None:
                        span.set_attribute("spent", record.spent)
                if record is not None:
                    result.iterations.append(record)
                    self._fire("acquire", record)
                    self._fire("iteration", record)
                    stop = finish(record)
                    yield record
                    if stop:
                        return

            # A non-iterative strategy gets exactly one main iteration.  The
            # bound lives in the loop condition so that a run resumed after
            # that iteration stops as well.
            max_iterations = (
                strategy.iteration_cap or tuner.config.max_iterations
                if strategy.is_iterative
                else 1
            )
            while run.iteration < max_iterations:
                if strategy.is_iterative:
                    if state.ledger.exhausted:
                        break
                    if state.ledger.remaining < state.cheapest_cost():
                        break
                if (
                    tuner.config.reslice_every > 0
                    and run.iteration > 0
                    and run.iteration % tuner.config.reslice_every == 0
                    and run.last_reslice_iteration != run.iteration
                ):
                    self._reslice(run)
                # The span closes before the "iteration" hooks and the
                # yield, so it measures propose/acquire/observe — not
                # whatever the consumer does between records.
                with tracer.span(
                    "session.iteration",
                    attributes={"strategy": strategy.name},
                    baggage={
                        "scope": self._scope,
                        "iteration": run.iteration + 1,
                    },
                ) as span:
                    plan = strategy.propose(
                        state, state.ledger.remaining, run.lam
                    )
                    if plan is None:
                        span.set_attribute("proposed", False)
                        break
                    run.iteration += 1
                    state.iteration = run.iteration
                    record = self._acquire_plan(state, plan, run.iteration)
                    result.iterations.append(record)
                    for name, count in record.acquired.items():
                        result.total_acquired[name] = (
                            result.total_acquired.get(name, 0) + count
                        )
                    self._fire("acquire", record)
                    keep_going = strategy.observe(state, record)
                    span.set_attribute(
                        "acquired", sum(record.acquired.values())
                    )
                    span.set_attribute("spent", record.spent)
                registry.counter("session.iterations").inc()
                self._fire("iteration", record)
                stop = finish(record)
                yield record
                if stop or not keep_going:
                    break
            result.spent = state.ledger.spent
        finally:
            if listening:
                tracer.remove_listener(self._dispatch_span)

    def _reslice(self, run: _RunContext) -> None:
        """Re-run slice discovery and swap the run onto the new partition.

        Deterministic by construction: the discovery seed and the training
        seed of the probe model derive from the slice generation through
        :func:`~repro.engine.job.stable_seed` (never from the shared RNG
        stream), so a crash-resumed run that replays this boundary
        re-discovers byte-identical slices.  After the swap the strategy is
        re-initialized via ``begin`` — its per-slice state keys by the old
        names — and a :class:`ResliceEvent` fires on the ``reslice`` hooks.
        """
        tuner = self.tuner
        generation = run.slice_generation + 1
        with get_tracer().span(
            "session.reslice",
            attributes={
                "generation": generation,
                "method": tuner.config.discover,
            },
            baggage={"scope": self._scope, "iteration": run.iteration},
        ):
            method = get_discovery_method(
                tuner.config.discover,
                seed=stable_seed(
                    "slice-discovery", tuner.config.discover, generation
                ),
            )
            pool = tuner.sliced.combined_train()
            job = TrainingJob(
                train=pool,
                n_classes=tuner.sliced.n_classes,
                seed=stable_seed("slice-discovery-model", generation),
                trainer_config=tuner.trainer_config,
                model_factory=tuner.model_factory,
                factory_name=describe_factory(tuner.model_factory),
                tag=("discover", generation),
            )
            model = tuner.executor.submit([job])[0].model
            method.fit(model, pool)
        get_registry().counter("session.reslices").inc()

        # Base providers understand the *original* slice names; unwrap a
        # previous generation's adapter rather than nesting adapters.
        base_source = tuner.source
        if isinstance(base_source, DiscoverySource):
            base_names = list(base_source.base_names)
            base_source = base_source.base
        else:
            base_names = tuner.sliced.names

        new_sliced = method.transform(tuner.sliced)
        discovery_source = DiscoverySource(
            base=base_source,
            method=method,
            base_names=base_names,
            n_features=new_sliced.n_features,
        )
        tuner.sliced = new_sliced
        tuner.sources = {"discovered": discovery_source}
        tuner.provider_order = ("discovered",)
        tuner.source = discovery_source
        tuner.cost_model = TableCost(
            {name: new_sliced[name].cost for name in new_sliced.names}
        )

        state = run.state
        state.sliced = new_sliced
        state.source = discovery_source
        state.cost_model = tuner.cost_model
        if state.service is not None:
            state.service.router = AcquisitionRouter(
                tuner.sources, default=tuner.provider_order
            )
            state.service.cost_model = tuner.cost_model
            state.service.sliced = new_sliced
        for name in new_sliced.names:
            run.result.total_acquired.setdefault(name, 0)
        run.strategy.begin(state)

        run.slice_generation = generation
        run.last_reslice_iteration = run.iteration
        event = ResliceEvent(
            iteration=run.iteration,
            slice_generation=generation,
            method=method.name,
            fingerprint=method.fingerprint(),
            slice_names=tuple(new_sliced.names),
        )
        run.reslice_log.append(event)
        self._fire("reslice", event)

    @property
    def slice_generation(self) -> int:
        """Current slice-partition generation (0 until the first re-slice)."""
        return self._run.slice_generation if self._run is not None else 0

    def _acquire_plan(
        self, state: TunerState, plan: AcquisitionPlan, iteration: int
    ) -> IterationRecord:
        """Acquire one proposed batch, charging only for delivered examples.

        The plan is translated into declarative acquisition requests and
        submitted to the run's :class:`~repro.acquisition.service.
        AcquisitionService`; each fulfillment is applied incrementally (and
        fires the ``fulfillment`` hooks) as it lands, and its summary is
        recorded on the iteration record.
        """
        record = IterationRecord(
            iteration=iteration,
            requested={
                name: int(count) for name, count in plan.counts.items()
            },
            limit=plan.limit,
            curve_parameters=dict(plan.curve_parameters),
        )
        record.imbalance_before = (
            state.sliced.imbalance_ratio()
            if plan.imbalance_before is None
            else plan.imbalance_before
        )
        spent_before = state.ledger.spent
        deadline_rounds = self.tuner.config.acquisition_rounds
        for name, count in plan.counts.items():
            if count <= 0:
                continue
            fulfillment = state.service.acquire(
                name,
                int(count),
                deadline_rounds=deadline_rounds,
                tag=f"iteration:{iteration}",
            )
            record.fulfillments.append(fulfillment.summary())
            if fulfillment.status == SKIPPED:
                continue  # capped to zero by the budget; no provider consulted
            record.acquired[name] = (
                record.acquired.get(name, 0) + fulfillment.delivered_count
            )
        record.spent = state.ledger.spent - spent_before
        record.imbalance_after = (
            state.sliced.imbalance_ratio()
            if plan.imbalance_after is None
            else plan.imbalance_after
        )
        return record

    def _top_up_minimum_sizes(self, run: _RunContext) -> IterationRecord | None:
        """Steps 3-6 of Algorithm 1: top every slice up to ``min_slice_size``.

        Acquires through the run's service (so fulfillments are logged and
        streamed) and returns the iteration-0 record, or None when no slice
        needed topping up.
        """
        state = run.state
        record = IterationRecord(iteration=0, limit=run.strategy.current_limit)
        record.imbalance_before = state.sliced.imbalance_ratio()
        spent_before = state.ledger.spent
        topped_up = False
        for name in state.sliced.names:
            deficit = self.tuner.config.min_slice_size - state.sliced[name].size
            if deficit <= 0:
                continue
            unit_cost = state.cost_model.cost(name)
            affordable = min(deficit, state.ledger.affordable_count(unit_cost))
            if affordable <= 0:
                continue
            record.requested[name] = affordable
            fulfillment = state.service.acquire(
                name, affordable, tag="min_slice_size"
            )
            delivered = fulfillment.delivered_count
            record.acquired[name] = record.acquired.get(name, 0) + delivered
            record.fulfillments.append(fulfillment.summary())
            run.result.total_acquired[name] = (
                run.result.total_acquired.get(name, 0) + delivered
            )
            topped_up = True
        record.imbalance_after = state.sliced.imbalance_ratio()
        record.spent = state.ledger.spent - spent_before
        return record if topped_up else None
