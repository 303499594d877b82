"""Dataset container and split utilities.

A :class:`Dataset` is an immutable pair of a 2-D float feature matrix and a
1-D integer label vector.  All higher layers (slicing, acquisition, curve
estimation) manipulate datasets through the small set of operations here:
subsetting, sampling, concatenation, and train/validation splitting.

A :class:`RowView` is a dataset by reference: a shared ``pool`` plus an
int64 ``rows`` index into it.  Learning-curve jobs train on views of one
combined copy of the slice pools
(:meth:`~repro.slices.sliced_dataset.SlicedDataset.subset_train`), so a
wave of jobs costs one copy of the data plus 8 bytes per selected row, not
one copy per job.  The training loops gather each batch straight from the
pool through :meth:`Dataset.locate`; any other reader of ``features`` or
``labels`` gets the selected rows gathered afresh on each access, so every
caller works with either kind of dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class Dataset:
    """An immutable labeled dataset.

    Attributes
    ----------
    features:
        Array of shape ``(n_examples, n_features)``; stored as ``float64``.
    labels:
        Array of shape ``(n_examples,)``; stored as ``int64``.  Labels are
        class indices and need not be contiguous, though the classifiers
        expect them in ``range(n_classes)``.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ConfigurationError(
                f"features must be 2-dimensional, got shape {features.shape}"
            )
        if labels.ndim != 1:
            raise ConfigurationError(
                f"labels must be 1-dimensional, got shape {labels.shape}"
            )
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                f"features has {features.shape[0]} rows but labels has "
                f"{labels.shape[0]} entries"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        """Number of distinct labels present (0 for an empty dataset)."""
        if len(self) == 0:
            return 0
        return int(self.labels.max()) + 1

    def class_counts(self, n_classes: int | None = None) -> np.ndarray:
        """Return per-class example counts as an integer array."""
        n_classes = n_classes if n_classes is not None else self.n_classes
        return np.bincount(self.labels, minlength=n_classes)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """Return a new dataset containing only the rows at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices])

    def locate(self, positions: slice | np.ndarray) -> tuple["Dataset", np.ndarray]:
        """Where this dataset's rows ``positions`` are stored.

        Returns ``(source, index)`` such that ``source.features[index]`` and
        ``source.labels[index]`` are those rows: the dataset itself for a
        plain dataset, the shared pool for a :class:`RowView`.
        """
        return self, positions

    def sample(self, size: int, random_state: RandomState = None) -> "Dataset":
        """Return a uniform random subset (without replacement) of ``size`` rows.

        ``size`` is clamped to the dataset size so callers may over-request.
        """
        size = int(min(max(size, 0), len(self)))
        if size == len(self):
            return self
        rng = as_generator(random_state)
        indices = rng.choice(len(self), size=size, replace=False)
        return self.subset(indices)

    def shuffle(self, random_state: RandomState = None) -> "Dataset":
        """Return a copy with rows in random order."""
        rng = as_generator(random_state)
        return self.subset(rng.permutation(len(self)))

    def take(self, size: int) -> "Dataset":
        """Return the first ``size`` rows (clamped to the dataset size)."""
        size = int(min(max(size, 0), len(self)))
        return self.subset(np.arange(size))

    @staticmethod
    def empty(n_features: int) -> "Dataset":
        """Return an empty dataset with ``n_features`` feature columns."""
        return Dataset(
            np.empty((0, n_features), dtype=np.float64),
            np.empty((0,), dtype=np.int64),
        )

    @staticmethod
    def concatenate(datasets: Iterable["Dataset"]) -> "Dataset":
        """Stack several datasets (they must agree on the feature width)."""
        datasets = [d for d in datasets if len(d) > 0]
        if not datasets:
            raise ConfigurationError("cannot concatenate zero non-empty datasets")
        widths = {d.n_features for d in datasets}
        if len(widths) > 1:
            raise ConfigurationError(
                f"datasets disagree on feature width: {sorted(widths)}"
            )
        features = np.concatenate([d.features for d in datasets], axis=0)
        labels = np.concatenate([d.labels for d in datasets], axis=0)
        return Dataset(features, labels)


class RowView(Dataset):
    """Rows ``rows`` of a shared ``pool``, gathered on demand.

    ``features`` and ``labels`` gather the selected rows afresh on every
    access; hot loops gather only what they need through :meth:`locate`.
    Subsetting a view gives a view of the same pool, never a copy.  A view
    pickles as a plain :class:`Dataset` of its rows, so a job crosses a
    process boundary as a job built on a copy would.
    """

    pool: Dataset
    rows: np.ndarray

    def __init__(self, pool: Dataset, rows: np.ndarray) -> None:
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "rows", np.asarray(rows, dtype=np.int64))

    @property  # type: ignore[override]
    def features(self) -> np.ndarray:
        return self.pool.features[self.rows]

    @property  # type: ignore[override]
    def labels(self) -> np.ndarray:
        return self.pool.labels[self.rows]

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_features(self) -> int:
        return self.pool.n_features

    def subset(self, indices: Sequence[int] | np.ndarray) -> "RowView":
        return RowView(self.pool, self.rows[np.asarray(indices, dtype=np.int64)])

    def locate(self, positions: slice | np.ndarray) -> tuple[Dataset, np.ndarray]:
        return self.pool, self.rows[positions]

    def __reduce__(self):  # type: ignore[override]
        return Dataset, (self.features, self.labels)


def train_validation_split(
    dataset: Dataset,
    validation_size: int | float,
    random_state: RandomState = None,
) -> tuple[Dataset, Dataset]:
    """Split ``dataset`` into a train part and a validation part.

    Parameters
    ----------
    dataset:
        The dataset to split.
    validation_size:
        Either an absolute number of validation rows (``int``) or a fraction
        in ``(0, 1)`` (``float``).
    random_state:
        Seed or generator controlling the shuffle before splitting.

    Returns
    -------
    (train, validation):
        Two datasets whose sizes sum to ``len(dataset)``.
    """
    n = len(dataset)
    if isinstance(validation_size, float) and 0 < validation_size < 1:
        n_val = int(round(n * validation_size))
    else:
        n_val = int(validation_size)
    if n_val < 0 or n_val > n:
        raise ConfigurationError(
            f"validation_size={validation_size} resolves to {n_val} rows, "
            f"but the dataset only has {n}"
        )
    shuffled = dataset.shuffle(random_state)
    validation = shuffled.take(n_val)
    train = shuffled.subset(np.arange(n_val, n))
    return train, validation
