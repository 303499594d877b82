"""Named data-source providers: the registry and the source decorators.

Every way of obtaining examples — the unlimited generator, finite pools,
the AMT-style crowdsourcing simulator, and any user-defined source — is
registered here under one or more names.  :class:`~repro.acquisition.router.AcquisitionRouter`
and the :class:`~repro.acquisition.service.AcquisitionService` resolve
provider names against this registry, and the CLI ``sources`` subcommand
lists it.

Registering a custom provider::

    from repro.acquisition.providers import register_source

    @register_source("cached_corpus", description="pre-downloaded corpus shards")
    class CachedCorpusSource:
        def acquire(self, slice_name, count): ...
        def available(self, slice_name): ...

Two decorators compose with any provider:

* :class:`CompositeSource` — priority/failover across providers: walk the
  providers in order, take what each can deliver, fall through to the next
  on a shortfall or a per-provider :class:`AcquisitionError`.
* :class:`ThrottledSource` — per-slice rate limits and simulated latency:
  each request is truncated to the slice's per-request cap (so callers see
  partial fulfillments and must come back next round), and the simulated
  wall-clock cost of every delivery is accumulated without ever sleeping.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.acquisition.crowdsourcing import CrowdsourcingSimulator
from repro.acquisition.source import (
    DataSource,
    GeneratorDataSource,
    PoolDataSource,
)
from repro.ml.data import Dataset
from repro.utils.exceptions import AcquisitionError, ConfigurationError
from repro.utils.registry import Registry
from repro.utils.validation import check_non_negative

#: A callable building a fresh data source (a class or a factory).
SourceFactory = Callable[..., DataSource]

#: Every registered provider; the built-ins are registered at the bottom.
SOURCES: Registry[SourceFactory] = Registry("source")

register_source = SOURCES.register
unregister_source = SOURCES.unregister
available_sources = SOURCES.names
source_descriptions = SOURCES.descriptions
is_source_registered = SOURCES.__contains__


def get_source(name: str, **kwargs) -> DataSource:
    """Instantiate the provider registered under ``name``.

    Extra keyword arguments are forwarded to the provider factory, e.g.
    ``get_source("generator", task=task, random_state=3)``.  Raises
    :class:`~repro.utils.exceptions.ConfigurationError` for unknown names.
    """
    source = SOURCES.build(name, **kwargs)
    if not isinstance(source, DataSource):
        raise ConfigurationError(
            f"factory for source {name!r} returned "
            f"{type(source).__name__}, which does not implement DataSource"
        )
    return source


# -- source decorators ----------------------------------------------------------


class CompositeSource:
    """Priority/failover composition of several providers.

    ``acquire`` walks the providers in order, taking what each can deliver
    until the request is filled; a provider that raises
    :class:`~repro.utils.exceptions.AcquisitionError` (e.g. a pool that does
    not cover the slice) is skipped and the next provider tried.  The names
    of the providers that contributed to the most recent acquisition are
    exposed as :attr:`last_provenance` / :attr:`last_contributions`.

    The walk itself is one routing round of
    :class:`~repro.acquisition.router.AcquisitionRouter` — this class is the
    plain-``DataSource`` face of the same algorithm, so the two can never
    drift apart.

    Parameters
    ----------
    providers:
        Mapping of provider name to source, or a sequence of
        ``(name, source)`` pairs; iteration order is priority order.
    """

    def __init__(
        self,
        providers: Mapping[str, DataSource] | Sequence[tuple[str, DataSource]],
    ) -> None:
        pairs = (
            list(providers.items())
            if isinstance(providers, Mapping)
            else list(providers)
        )
        if not pairs:
            raise ConfigurationError("CompositeSource needs at least one provider")
        table: dict[str, DataSource] = {}
        for provider_name, source in pairs:
            if provider_name in table:
                raise ConfigurationError(
                    f"duplicate provider name {provider_name!r} in CompositeSource"
                )
            table[str(provider_name)] = source
        # Imported here so the registry module stays importable on its own.
        from repro.acquisition.router import AcquisitionRouter

        self._router = AcquisitionRouter(table)
        self.total_delivered = 0
        self.last_provenance: tuple[str, ...] = ()
        self.last_contributions: dict[str, int] = {}

    @property
    def provider_names(self) -> tuple[str, ...]:
        """Provider names in priority order."""
        return self._router.provider_names

    def acquire(self, slice_name: str, count: int) -> Dataset:
        """Fill the request across providers in priority order."""
        delivery = self._router.fulfill(slice_name, count, deadline_rounds=1)
        self.last_provenance = delivery.provenance
        self.last_contributions = delivery.contributions
        self.total_delivered += len(delivery.dataset)
        return delivery.dataset

    def available(self, slice_name: str) -> int | None:
        """Total availability across providers (``None`` when any is unlimited)."""
        return self._router.available(slice_name)


class ThrottledSource:
    """Per-slice rate limits and simulated latency around any provider.

    Each ``acquire`` is truncated to the slice's per-request cap, modelling
    a campaign that can only ingest so many tasks per round; callers that
    want the full count must come back for more rounds (which the
    :class:`~repro.acquisition.router.AcquisitionRouter` does when the
    request's ``deadline_rounds`` allows).  Latency is *simulated*: the
    would-be wall-clock cost of every delivery accumulates in
    :attr:`simulated_seconds` without ever sleeping, keeping runs fast and
    deterministic.

    Parameters
    ----------
    source:
        The underlying provider.
    per_request_cap:
        Maximum examples delivered per ``acquire`` call — an int applying
        to every slice, or a mapping of slice name to cap (missing slices
        are uncapped).  ``None`` disables the limit.
    latency_per_request / latency_per_example:
        Simulated seconds added per ``acquire`` call and per delivered
        example.
    """

    def __init__(
        self,
        source: DataSource,
        per_request_cap: int | Mapping[str, int] | None = None,
        latency_per_request: float = 0.0,
        latency_per_example: float = 0.0,
    ) -> None:
        self._source = source
        if isinstance(per_request_cap, Mapping):
            self._caps: Mapping[str, int] | None = {
                name: int(cap) for name, cap in per_request_cap.items()
            }
            self._default_cap: int | None = None
        else:
            self._caps = None
            self._default_cap = None if per_request_cap is None else int(per_request_cap)
        if self._default_cap is not None and self._default_cap < 1:
            raise ConfigurationError(
                f"per_request_cap must be >= 1, got {self._default_cap}"
            )
        if self._caps is not None and any(cap < 1 for cap in self._caps.values()):
            raise ConfigurationError("every per-slice cap must be >= 1")
        self.latency_per_request = check_non_negative(
            latency_per_request, "latency_per_request"
        )
        self.latency_per_example = check_non_negative(
            latency_per_example, "latency_per_example"
        )
        self.simulated_seconds = 0.0
        self.requests_served = 0
        self.throttled_requests = 0

    def cap_for(self, slice_name: str) -> int | None:
        """The per-request cap in force for ``slice_name`` (None = uncapped)."""
        if self._caps is not None:
            return self._caps.get(slice_name)
        return self._default_cap

    def acquire(self, slice_name: str, count: int) -> Dataset:
        """Deliver up to the slice's cap, accumulating simulated latency."""
        count = int(count)
        if count < 0:
            raise AcquisitionError(f"cannot acquire a negative count ({count})")
        cap = self.cap_for(slice_name)
        granted = count if cap is None else min(count, cap)
        if granted < count:
            self.throttled_requests += 1
        delivered = self._source.acquire(slice_name, granted)
        self.requests_served += 1
        self.simulated_seconds += (
            self.latency_per_request + self.latency_per_example * len(delivered)
        )
        return delivered

    def available(self, slice_name: str) -> int | None:
        """Delegate availability to the underlying provider."""
        return self._source.available(slice_name)


# -- built-in registrations ------------------------------------------------------

register_source(
    "generator",
    aliases=("simulator",),
    description="unlimited synthetic source backed by a task's generative model",
)(GeneratorDataSource)
register_source(
    "pool",
    description="finite per-slice reserve pools that can run dry",
)(PoolDataSource)
register_source(
    "crowdsourcing",
    aliases=("amt",),
    description="AMT-style campaign with worker mistakes, duplicates, and timing",
)(CrowdsourcingSimulator)
register_source(
    "composite",
    description="priority/failover composition of several providers",
)(CompositeSource)
register_source(
    "throttled",
    description="per-slice rate limits and simulated latency around a provider",
)(ThrottledSource)
