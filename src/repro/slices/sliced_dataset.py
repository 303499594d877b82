"""The :class:`SlicedDataset` container.

This is the object the Slice Tuner core manipulates: an ordered collection of
named slices with their training data, validation data, and acquisition
costs.  It offers the combined views needed for model training (union of all
train data), the per-slice views needed for evaluation, and mutation through
``add_examples`` as acquisition proceeds.

Training data is handed out by reference: :meth:`SlicedDataset.combined_train`
builds one combined copy of the slice pools per data version, and
:meth:`SlicedDataset.subset_train` returns a :class:`~repro.ml.data.RowView`
of that copy, so a wave of curve jobs shares one copy of the data.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.ml.data import Dataset, RowView
from repro.slices.slice import Slice, SliceSpec
from repro.utils.exceptions import ConfigurationError, SlicingError
from repro.utils.rng import RandomState, as_generator


class SlicedDataset:
    """An ordered, named collection of slices forming one training problem.

    Parameters
    ----------
    slices:
        The slices, in a stable order.  Slice names must be unique and all
        slices must share the same feature width.
    n_classes:
        Total number of classes in the underlying task.  Passed explicitly
        because an individual slice (e.g. one per label) may only contain a
        subset of the classes.
    """

    def __init__(self, slices: Sequence[Slice], n_classes: int) -> None:
        slices = list(slices)
        if not slices:
            raise SlicingError("a SlicedDataset needs at least one slice")
        names = [s.name for s in slices]
        if len(set(names)) != len(names):
            raise SlicingError(f"slice names must be unique, got {names}")
        widths = {s.train.n_features for s in slices}
        if len(widths) > 1:
            raise SlicingError(
                f"slices disagree on feature width: {sorted(widths)}"
            )
        if n_classes <= 0:
            raise ConfigurationError(f"n_classes must be positive, got {n_classes}")
        self._slices: dict[str, Slice] = {s.name: s for s in slices}
        self._order: list[str] = names
        self.n_classes = int(n_classes)

    #: (the slice trains it was built from, combined copy, slice offsets).
    _combined: tuple[tuple[Dataset, ...], Dataset, list[int]] | None = None

    def __getstate__(self) -> dict:
        # The combined copy is a cache: snapshots never carry it.
        state = dict(self.__dict__)
        state.pop("_combined", None)
        return state

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_datasets(
        cls,
        train_by_slice: Mapping[str, Dataset],
        validation_by_slice: Mapping[str, Dataset],
        n_classes: int,
        costs: Mapping[str, float] | None = None,
    ) -> "SlicedDataset":
        """Build a SlicedDataset from per-slice train/validation mappings."""
        if set(train_by_slice) != set(validation_by_slice):
            raise SlicingError(
                "train and validation mappings must cover the same slice names"
            )
        costs = dict(costs or {})
        slices = []
        for name in train_by_slice:
            spec = SliceSpec(name=name, cost=float(costs.get(name, 1.0)))
            slices.append(
                Slice(
                    spec=spec,
                    train=train_by_slice[name],
                    validation=validation_by_slice[name],
                )
            )
        return cls(slices, n_classes=n_classes)

    # -- basic introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Slice]:
        return (self._slices[name] for name in self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._slices

    def __getitem__(self, name: str) -> Slice:
        try:
            return self._slices[name]
        except KeyError:
            raise SlicingError(f"unknown slice {name!r}") from None

    @property
    def names(self) -> list[str]:
        """Slice names in their stable order."""
        return list(self._order)

    @property
    def n_features(self) -> int:
        """Feature width shared by all slices."""
        return self._slices[self._order[0]].train.n_features

    def sizes(self) -> np.ndarray:
        """Current training sizes per slice (ordered like :attr:`names`)."""
        return np.array([self._slices[n].size for n in self._order], dtype=np.int64)

    def costs(self) -> np.ndarray:
        """Per-example acquisition costs per slice (ordered like :attr:`names`)."""
        return np.array([self._slices[n].cost for n in self._order], dtype=np.float64)

    def acquired_counts(self) -> np.ndarray:
        """Total examples acquired so far per slice."""
        return np.array(
            [self._slices[n].acquired for n in self._order], dtype=np.int64
        )

    # -- combined views ----------------------------------------------------------
    def _combined_pool(self) -> tuple[Dataset, list[int]]:
        """The current data version's combined copy and each slice's offset.

        A version is the tuple of slice train datasets (immutable, compared
        by identity), so the copy is rebuilt exactly when a pool changed,
        however the slice was mutated.
        """
        trains = tuple(self._slices[name].train for name in self._order)
        cached = self._combined
        if cached is None or any(a is not b for a, b in zip(cached[0], trains)):
            non_empty = [train for train in trains if len(train) > 0]
            pool = (
                Dataset.concatenate(non_empty)
                if non_empty
                else Dataset.empty(self.n_features)
            )
            offsets = np.cumsum([0, *(len(train) for train in trains)]).tolist()
            cached = self._combined = (trains, pool, offsets)
        return cached[1], cached[2]

    def combined_train(self) -> Dataset:
        """Union of all slices' training data.

        One shared copy per data version: repeated calls between two
        changes of the slice pools return the same object.  Treat it as
        read-only.
        """
        return self._combined_pool()[0]

    def combined_validation(self) -> Dataset:
        """Union of all slices' validation data."""
        non_empty = [s.validation for s in self if len(s.validation) > 0]
        if not non_empty:
            return Dataset.empty(self.n_features)
        return Dataset.concatenate(non_empty)

    def validation_by_slice(self) -> dict[str, Dataset]:
        """Mapping from slice name to its validation dataset."""
        return {name: self._slices[name].validation for name in self._order}

    def train_by_slice(self) -> dict[str, Dataset]:
        """Mapping from slice name to its current training dataset."""
        return {name: self._slices[name].train for name in self._order}

    def subset_train(
        self,
        fraction: float | None = None,
        sizes: Mapping[str, int] | None = None,
        random_state: RandomState = None,
    ) -> Dataset:
        """Union of random subsets of each slice's training data.

        This implements the paper's efficient (amortized) learning-curve
        protocol: take X% subsets of *all* slices and train a single model.
        The result is a :class:`~repro.ml.data.RowView` of
        :meth:`combined_train`: each slice's sampled rows in slice order,
        with the draws of :meth:`~repro.ml.data.Dataset.sample` (a full
        slice draws nothing).

        Parameters
        ----------
        fraction:
            Fraction of each slice to keep (mutually exclusive with
            ``sizes``).
        sizes:
            Explicit number of examples to keep per slice name.
        random_state:
            Seed or generator for the subsampling.
        """
        if (fraction is None) == (sizes is None):
            raise ConfigurationError(
                "exactly one of fraction or sizes must be provided"
            )
        rng = as_generator(random_state)
        pool, offsets = self._combined_pool()
        parts = []
        for name, start, stop in zip(self._order, offsets, offsets[1:]):
            if fraction is not None:
                target = int(round((stop - start) * float(fraction)))
            else:
                target = int(sizes.get(name, stop - start))
            own = RowView(pool, np.arange(start, stop))
            parts.append(own.sample(target, random_state=rng).rows)
        return RowView(pool, np.concatenate(parts))

    # -- mutation ------------------------------------------------------------------
    def add_examples(self, name: str, examples: Dataset) -> None:
        """Append acquired ``examples`` to the named slice's training data.

        Starts a new data version: the old combined copy is dropped.
        """
        self[name].add_examples(examples)
        self._combined = None

    def copy(self) -> "SlicedDataset":
        """Deep-enough copy: slices are copied, underlying arrays are shared."""
        return SlicedDataset(
            [self._slices[name].copy() for name in self._order],
            n_classes=self.n_classes,
        )

    # -- convenience ----------------------------------------------------------------
    def imbalance_ratio(self) -> float:
        """Ratio of the largest to the smallest slice size (paper Section 5.2)."""
        sizes = self.sizes()
        smallest = sizes.min()
        if smallest <= 0:
            return float("inf")
        return float(sizes.max() / smallest)

    def summary(self) -> list[dict[str, object]]:
        """One summary record per slice (name, size, acquired, cost)."""
        return [
            {
                "name": s.name,
                "size": s.size,
                "acquired": s.acquired,
                "cost": s.cost,
                "validation_size": len(s.validation),
            }
            for s in self
        ]
