"""Slice discovery: find underperforming slices from model behaviour.

Slice Tuner takes its slices as *given* and only sketches automatic slicing
in Appendix A.  This module adds the missing layer: a pluggable
:class:`SliceDiscoveryMethod` protocol (fit on a model's behaviour over a
dataset, then transform the data into a fresh
:class:`~repro.slices.sliced_dataset.SlicedDataset`) behind a
:class:`~repro.utils.registry.Registry` of named methods.

The lifecycle is::

    method = get_discovery_method("kmeans", n_slices=4, seed=0)
    method.fit(model, pool)              # learn slice boundaries
    sliced = method.transform(sliced)    # re-partition train + validation
    method.assign(features)              # route new rows to slices
    method.fingerprint()                 # content hash of the boundaries

Every method is **seeded and deterministic**: fitting the same data with the
same config yields byte-identical :class:`~repro.slices.slice.SliceSpec`
lists and the same :meth:`SliceDiscoveryMethod.fingerprint`, regardless of
process or executor.  That determinism is what lets dynamic re-slicing
(:class:`~repro.core.session.TunerSession` with ``reslice_every``) survive
crash-resume byte-identically: a resumed run re-discovers exactly the same
boundaries the interrupted run did.

Built-in methods live in :mod:`repro.slices.methods` and are registered
lazily on first lookup:

* ``"stump"`` — error-driven feature-threshold rule induction (decision
  stumps over the misclassification indicator),
* ``"kmeans"`` — error-aware k-means clustering in feature space,
* ``"auto"`` — the Appendix-A label-entropy recursive slicer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.ml.data import Dataset
from repro.slices.slice import SliceSpec
from repro.slices.sliced_dataset import SlicedDataset
from repro.slices.validation import check_discovered_partition
from repro.telemetry import get_registry, get_tracer
from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry

__all__ = [
    "SliceDiscoveryMethod",
    "register_discovery_method",
    "unregister_discovery_method",
    "get_discovery_method",
    "available_discovery_methods",
    "discovery_method_descriptions",
    "is_discovery_method",
]


class SliceDiscoveryMethod(ABC):
    """Base class for pluggable slice discovery methods.

    Subclasses declare a nested frozen ``Config`` dataclass holding every
    knob (including an integer ``seed``), implement :meth:`fit` to learn a
    partition of feature space from a trained model's behaviour, and
    implement the two region primitives (:meth:`_assign_regions`,
    :meth:`_region_names`).  The concrete :meth:`transform` then re-slices a
    :class:`~repro.slices.sliced_dataset.SlicedDataset`, consolidating
    regions that would produce an empty train or validation side and
    validating the result with
    :func:`~repro.slices.validation.check_discovered_partition`.

    Parameters
    ----------
    config:
        A pre-built ``Config`` instance, or ``None`` to build one from
        ``**kwargs`` (the domino-style convenience constructor).
    """

    @dataclass(frozen=True)
    class Config:
        seed: int = 0

    def __init__(self, config: "SliceDiscoveryMethod.Config | None" = None, **kwargs):
        if config is not None and kwargs:
            raise ConfigurationError(
                "pass either a Config instance or keyword overrides, not both"
            )
        try:
            self.config = config if config is not None else type(self).Config(**kwargs)
        except TypeError as error:
            raise ConfigurationError(
                f"invalid {type(self).__name__} configuration: {error}"
            ) from error
        if not isinstance(self.config, type(self).Config):
            raise ConfigurationError(
                f"config must be a {type(self).__name__}.Config, "
                f"got {type(self.config).__name__}"
            )
        #: Registry name; filled in by :func:`get_discovery_method`.
        self.name: str = type(self).__name__
        self._fitted = False
        self._specs: tuple[SliceSpec, ...] | None = None
        self._remap: np.ndarray | None = None
        self._final_of_region: np.ndarray | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Trace every concrete ``fit`` — including user-registered methods.

        Each subclass defining its own ``fit`` gets it wrapped in a
        ``discovery.fit`` span plus a ``discovery.fit_seconds`` histogram
        observation, so the protocol stays a plain method to implement and
        instrumentation cannot be forgotten.
        """
        super().__init_subclass__(**kwargs)
        fit = cls.__dict__.get("fit")
        if fit is None or getattr(fit, "_telemetry_wrapped", False):
            return

        @functools.wraps(fit)
        def traced_fit(self, *args, **fit_kwargs):
            with get_tracer().span(
                "discovery.fit",
                attributes={"method": type(self).__name__},
            ):
                started = time.perf_counter()
                try:
                    return fit(self, *args, **fit_kwargs)
                finally:
                    get_registry().histogram(
                        "discovery.fit_seconds"
                    ).observe(time.perf_counter() - started)

        traced_fit._telemetry_wrapped = True
        cls.fit = traced_fit

    # -- the protocol ----------------------------------------------------------
    @abstractmethod
    def fit(
        self,
        model,
        dataset: Dataset,
        predictions: np.ndarray | None = None,
    ) -> "SliceDiscoveryMethod":
        """Learn slice boundaries from ``model``'s behaviour on ``dataset``.

        ``predictions`` are the model's hard labels for ``dataset``; when
        ``None`` they are computed from ``model`` (methods that do not need
        a model, like ``"auto"``, accept ``model=None``).  Returns ``self``.
        """

    @abstractmethod
    def _assign_regions(self, features: np.ndarray) -> np.ndarray:
        """Raw region index in ``[0, n_regions)`` for every row (total)."""

    @abstractmethod
    def _region_names(self) -> list[str]:
        """Stable, human-readable name per raw region."""

    @abstractmethod
    def _boundary_payload(self) -> object:
        """JSON-serializable description of the fitted boundaries."""

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _error_indicator(method: str, model, dataset: Dataset, predictions):
        """1.0 for each row of ``dataset`` the model gets wrong, else 0.0.

        The hard labels are ``predictions``, else ``model.predict``;
        ``method`` names the caller in the error raised without either.
        """
        if len(dataset) == 0:
            raise ConfigurationError("cannot discover slices on an empty dataset")
        if predictions is None:
            if model is None:
                raise ConfigurationError(
                    f"{method} discovery needs a model or precomputed predictions"
                )
            predictions = model.predict(dataset.features)
        predictions = np.asarray(predictions)
        if predictions.shape != dataset.labels.shape:
            raise ConfigurationError(
                f"predictions shape {predictions.shape} does not match "
                f"labels shape {dataset.labels.shape}"
            )
        return (predictions != dataset.labels).astype(np.float64)

    def _mark_fitted(self) -> "SliceDiscoveryMethod":
        self._fitted = True
        self._specs = None
        self._remap = None
        self._final_of_region = None
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ConfigurationError(
                f"{type(self).__name__} must be fit() before use"
            )

    def _require_transformed(self) -> None:
        self._require_fitted()
        if self._specs is None:
            raise ConfigurationError(
                f"{type(self).__name__} has no final slices yet; "
                "call transform() first"
            )

    # -- transform -------------------------------------------------------------
    def transform(self, data: "SlicedDataset | Dataset") -> SlicedDataset:
        """Re-partition ``data`` into the discovered slices.

        A :class:`~repro.slices.sliced_dataset.SlicedDataset` input has both
        its train and validation pools reassigned (each discovered slice's
        cost is the mean acquisition cost of the originating rows); a bare
        :class:`~repro.ml.data.Dataset` is treated as train-only with empty
        validation sides.  Regions whose train or validation side would be
        empty are merged into the largest surviving region, so downstream
        curve estimation always sees usable slices.
        """
        self._require_fitted()
        if isinstance(data, SlicedDataset):
            train_parts = [s.train for s in data if len(s.train) > 0]
            train_costs = np.concatenate(
                [np.full(len(s.train), s.cost) for s in data if len(s.train) > 0]
            ) if train_parts else np.zeros(0)
            train = (
                Dataset.concatenate(train_parts)
                if train_parts
                else Dataset.empty(data.n_features)
            )
            validation = data.combined_validation()
            n_classes = data.n_classes
        else:
            train = data
            train_costs = np.ones(len(train))
            validation = Dataset.empty(train.n_features)
            n_classes = train.n_classes
        if len(train) == 0:
            raise ConfigurationError("cannot transform an empty dataset")

        raw_train = np.asarray(self._assign_regions(train.features), dtype=np.int64)
        raw_val = np.asarray(
            self._assign_regions(validation.features), dtype=np.int64
        ) if len(validation) else np.zeros(0, dtype=np.int64)
        names = self._region_names()
        n_regions = len(names)
        remap = self._consolidate(raw_train, raw_val, n_regions, len(validation) > 0)
        self._remap = remap
        final_train = remap[raw_train]
        final_val = remap[raw_val] if len(validation) else raw_val

        kept = sorted(set(int(r) for r in remap))
        kept_names = [names[region] for region in kept]
        renumber = {region: index for index, region in enumerate(kept)}

        train_by_slice: dict[str, Dataset] = {}
        validation_by_slice: dict[str, Dataset] = {}
        costs: dict[str, float] = {}
        train_indices: dict[str, np.ndarray] = {}
        val_indices: dict[str, np.ndarray] = {}
        for region, name in zip(kept, kept_names):
            rows = np.nonzero(final_train == region)[0]
            train_indices[name] = rows
            train_by_slice[name] = train.subset(rows)
            costs[name] = float(np.mean(train_costs[rows])) if len(rows) else 1.0
            val_rows = (
                np.nonzero(final_val == region)[0]
                if len(validation)
                else np.zeros(0, dtype=np.int64)
            )
            val_indices[name] = val_rows
            validation_by_slice[name] = validation.subset(val_rows)

        check_discovered_partition(train, train_indices)
        if len(validation):
            check_discovered_partition(validation, val_indices)

        self._specs = tuple(
            SliceSpec(name=name, cost=costs[name]) for name in kept_names
        )
        # Final slice index per raw region, for assign() on future rows.
        self._final_of_region = np.array(
            [renumber[int(remap[region])] for region in range(n_regions)],
            dtype=np.int64,
        )
        return SlicedDataset.from_datasets(
            train_by_slice, validation_by_slice, n_classes=n_classes, costs=costs
        )

    @staticmethod
    def _consolidate(
        raw_train: np.ndarray,
        raw_val: np.ndarray,
        n_regions: int,
        has_validation: bool,
    ) -> np.ndarray:
        """Map each raw region onto a region with data on every side.

        Regions with an empty train side (or, when validation data exists,
        an empty validation side) are merged into the surviving region with
        the most training rows — deterministic, order-independent, and
        documented behaviour rather than a silent bad split.
        """
        train_counts = np.bincount(raw_train, minlength=n_regions)
        val_counts = np.bincount(raw_val, minlength=n_regions)
        alive = train_counts > 0
        if has_validation:
            alive &= val_counts > 0
        if not alive.any():
            raise ConfigurationError(
                "slice discovery produced no region with both train and "
                "validation data; loosen the method configuration"
            )
        # Largest surviving region; ties break toward the lowest index.
        sink = int(np.argmax(np.where(alive, train_counts, -1)))
        remap = np.arange(n_regions, dtype=np.int64)
        remap[~alive] = sink
        return remap

    # -- fitted products -------------------------------------------------------
    def assign(self, features: np.ndarray) -> np.ndarray:
        """Final slice index (ordered like :meth:`specs`) for every row."""
        self._require_transformed()
        raw = np.asarray(self._assign_regions(features), dtype=np.int64)
        return self._final_of_region[raw]

    def specs(self) -> tuple[SliceSpec, ...]:
        """The discovered :class:`~repro.slices.slice.SliceSpec` list."""
        self._require_transformed()
        return self._specs

    @property
    def slice_names(self) -> list[str]:
        """Names of the discovered slices, in assignment order."""
        return [spec.name for spec in self.specs()]

    def fingerprint(self) -> str:
        """Content hash of the discovered boundaries (hex sha256).

        Covers the method name, its full configuration, the final slice
        specs, and the method-specific boundary payload, so two fits agree
        on the fingerprint iff they produced the same partition.
        """
        self._require_transformed()
        payload = {
            "method": self.name,
            "config": asdict(self.config),
            "specs": [[spec.name, spec.cost] for spec in self._specs],
            "remap": [int(r) for r in self._final_of_region],
            "boundaries": self._boundary_payload(),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


#: A callable producing a discovery method; typically the class itself.
DiscoveryFactory = Callable[..., SliceDiscoveryMethod]

#: Every registered discovery method; the built-ins register themselves on
#: import.
DISCOVERY_METHODS: Registry[DiscoveryFactory] = Registry(
    "discovery method",
    builtins=(
        "repro.slices.methods.auto",
        "repro.slices.methods.kmeans",
        "repro.slices.methods.stump",
    ),
)

register_discovery_method = DISCOVERY_METHODS.register
unregister_discovery_method = DISCOVERY_METHODS.unregister
available_discovery_methods = DISCOVERY_METHODS.names
discovery_method_descriptions = DISCOVERY_METHODS.descriptions
is_discovery_method = DISCOVERY_METHODS.__contains__


def get_discovery_method(name: str, **kwargs) -> SliceDiscoveryMethod:
    """Instantiate the named discovery method with ``**kwargs`` config."""
    method = DISCOVERY_METHODS.build(name, **kwargs)
    if not isinstance(method, SliceDiscoveryMethod):
        raise ConfigurationError(
            f"factory for {name!r} returned {type(method).__name__}, "
            "not a SliceDiscoveryMethod"
        )
    method.name = DISCOVERY_METHODS.primary(name)
    return method
