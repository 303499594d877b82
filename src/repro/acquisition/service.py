"""The asynchronous-style acquisition service: requests in, fulfillments out.

:class:`AcquisitionService` is the single authoritative acquire/charge/record
path of the framework.  Strategies and sessions emit declarative
:class:`~repro.acquisition.requests.AcquisitionRequest` batches; the service

1. resolves the batch's per-example cost (constant within a batch, as the
   paper assumes),
2. caps the effective count to the request's ``max_cost`` and to what the
   run's :class:`~repro.acquisition.budget.BudgetLedger` still affords,
3. routes the order across the named providers through an
   :class:`~repro.acquisition.router.AcquisitionRouter` (retrying up to the
   request's ``deadline_rounds``),
4. charges the ledger and the cost model for what was actually *delivered* —
   never for phantom examples a dry pool or a lossy campaign failed to
   produce — and grows the sliced dataset, and
5. hands back a :class:`~repro.acquisition.requests.Fulfillment` carrying
   the delivered data, realized cost, shortfall, and provenance.

Deliveries are consumed incrementally — the incremental-view-maintenance
stance of the FO+MOD line of work: each fulfillment is an *update* applied
to the run's state the moment it lands, rather than a world recomputed per
blocking call.  Every acquisition a :class:`~repro.core.session.TunerSession`
makes — the minimum-size top-up and each proposed batch — goes through one
per-run service, so all strategies share the same accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.acquisition.requests import AcquisitionRequest, Fulfillment
from repro.acquisition.router import AcquisitionRouter
from repro.acquisition.source import DataSource
from repro.telemetry import get_registry, get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acquisition.budget import BudgetLedger
    from repro.acquisition.cost import CostModel
    from repro.slices.sliced_dataset import SlicedDataset

#: Callback fired with every fulfillment the service produces.
FulfillmentCallback = Callable[[Fulfillment], None]

#: Provider name used when a bare source is wrapped into a router.
DEFAULT_PROVIDER = "default"


class AcquisitionService:
    """Routes acquisition requests and applies their fulfillments.

    Parameters
    ----------
    source:
        Either a single :class:`~repro.acquisition.source.DataSource`
        (wrapped as the ``"default"`` provider), a mapping of provider name
        to source (priority = insertion order), or a pre-built
        :class:`~repro.acquisition.router.AcquisitionRouter`.
    cost_model:
        Per-slice unit costs; consulted once per request so the cost is
        constant within a batch.
    ledger:
        The run's budget ledger; charged by delivered count.
    sliced:
        Optional :class:`~repro.slices.sliced_dataset.SlicedDataset` that
        delivered examples are appended to.  ``None`` for callers that only
        want routed data back (e.g. warm-up pre-fetches).
    cap_to_budget:
        When True (default) the effective count of every request is capped
        to what the remaining budget affords, so a too-large order becomes
        a partial fulfillment instead of a
        :class:`~repro.utils.exceptions.BudgetError`.
    """

    def __init__(
        self,
        source: DataSource | Mapping[str, DataSource] | AcquisitionRouter,
        cost_model: "CostModel",
        ledger: "BudgetLedger",
        sliced: "SlicedDataset | None" = None,
        cap_to_budget: bool = True,
    ) -> None:
        if isinstance(source, AcquisitionRouter):
            self.router = source
        elif isinstance(source, Mapping):
            self.router = AcquisitionRouter(source)
        else:
            self.router = AcquisitionRouter({DEFAULT_PROVIDER: source})
        self.cost_model = cost_model
        self.ledger = ledger
        self.sliced = sliced
        self.cap_to_budget = bool(cap_to_budget)
        self.fulfillments: list[Fulfillment] = []
        self._callbacks: list[FulfillmentCallback] = []

    # -- observers ---------------------------------------------------------------
    def add_callback(self, callback: FulfillmentCallback) -> "AcquisitionService":
        """Fire ``callback`` with every fulfillment; returns ``self``."""
        self._callbacks.append(callback)
        return self

    # -- the request/fulfillment pipeline ----------------------------------------
    def submit(
        self, requests: Iterable[AcquisitionRequest]
    ) -> list[Fulfillment]:
        """Fulfill a batch of requests in order, applying each as it lands."""
        return [self._fulfill(request) for request in requests]

    def acquire(
        self,
        slice_name: str,
        count: int,
        max_cost: float | None = None,
        deadline_rounds: int = 1,
        tag: str = "",
    ) -> Fulfillment:
        """Convenience single-request form of :meth:`submit`."""
        request = AcquisitionRequest(
            slice_name=slice_name,
            count=int(count),
            max_cost=max_cost,
            deadline_rounds=deadline_rounds,
            tag=tag,
        )
        return self._fulfill(request)

    def _fulfill(self, request: AcquisitionRequest) -> Fulfillment:
        name = request.slice_name
        registry = get_registry()
        registry.counter("acquisition.requests").inc()
        with get_tracer().span(
            "acquisition.fulfill",
            attributes={"slice": name, "requested": request.count},
        ) as span:
            unit_cost = self.cost_model.cost(name)
            effective = request.count
            if request.max_cost is not None and unit_cost > 0:
                effective = min(effective, int(request.max_cost // unit_cost))
            if self.cap_to_budget:
                effective = min(
                    effective, self.ledger.affordable_count(unit_cost)
                )
            if effective <= 0:
                fulfillment = Fulfillment(
                    request=request,
                    effective_count=max(effective, 0),
                    unit_cost=unit_cost,
                )
            else:
                delivery = self.router.fulfill(
                    name, effective, deadline_rounds=request.deadline_rounds
                )
                delivered = delivery.dataset
                charged = self.ledger.charge(name, len(delivered), unit_cost)
                self.cost_model.record_acquisition(name, len(delivered))
                if self.sliced is not None and len(delivered):
                    self.sliced.add_examples(name, delivered)
                fulfillment = Fulfillment(
                    request=request,
                    effective_count=effective,
                    delivered=delivered,
                    unit_cost=unit_cost,
                    cost=charged,
                    provenance=delivery.provenance,
                    contributions=delivery.contributions,
                    rounds=delivery.rounds,
                )
            span.set_attribute("status", fulfillment.status)
            span.set_attribute("delivered", fulfillment.delivered_count)
            span.set_attribute("shortfall", fulfillment.shortfall)
        registry.counter("acquisition.delivered").inc(
            fulfillment.delivered_count
        )
        registry.counter("acquisition.shortfall").inc(fulfillment.shortfall)
        self.fulfillments.append(fulfillment)
        for callback in self._callbacks:
            callback(fulfillment)
        return fulfillment

    # -- introspection -----------------------------------------------------------
    def available(self, slice_name: str) -> int | None:
        """Availability across the slice's routed providers."""
        return self.router.available(slice_name)

    def release_payloads(self) -> int:
        """Drop the delivered datasets retained in the fulfillment log.

        The log keeps every :class:`~repro.acquisition.requests.Fulfillment`
        for the life of the run so events and introspection work; on large
        campaigns that pins a second copy of all acquired data (the first
        lives in the sliced dataset).  Call this once downstream consumers
        have seen the payloads — all counts, costs, and provenance survive.
        Returns the number of payloads released.
        """
        released = 0
        for fulfillment in self.fulfillments:
            if fulfillment.delivered is not None:
                fulfillment.release_payload()
                released += 1
        return released

    def delivered_by_slice(self) -> dict[str, int]:
        """Total examples delivered per slice over the service's lifetime."""
        totals: dict[str, int] = {}
        for fulfillment in self.fulfillments:
            totals[fulfillment.slice_name] = (
                totals.get(fulfillment.slice_name, 0)
                + fulfillment.delivered_count
            )
        return totals

    def shortfall_by_slice(self) -> dict[str, int]:
        """Total shortfall per slice (orders placed but not delivered)."""
        totals: dict[str, int] = {}
        for fulfillment in self.fulfillments:
            totals[fulfillment.slice_name] = (
                totals.get(fulfillment.slice_name, 0) + fulfillment.shortfall
            )
        return totals
