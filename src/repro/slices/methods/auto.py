"""Automatic slicing (Appendix A of the paper) as the ``"auto"`` discovery
method.

The paper sketches a decision-tree style procedure: starting from the whole
dataset, iteratively split slices that are *biased* — i.e. whose examples are
heterogeneous enough that acquiring one example is not interchangeable with
acquiring another — until every leaf slice is acceptably unbiased or a depth
or size limit is hit.  Bias is the label entropy of a slice, and a split
must lower it, following the appendix's "entropy-based measure".

The tree is the one in :mod:`repro.slices.methods.tree`, shared with
``"stump"``.  It grows depth-first (the newest open leaf, a right child
before its left sibling, expands next) and numbers regions right-first.
The method ignores the model (``fit(model=None, dataset)`` is fine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.data import Dataset
from repro.slices.discovery import register_discovery_method
from repro.slices.methods.tree import _SplitTree
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int


def _entropy(labels: np.ndarray) -> float:
    counts = np.bincount(labels)
    probabilities = counts[counts > 0] / counts.sum()
    return float(-np.sum(probabilities * np.log(probabilities)))


def label_entropy(dataset: Dataset) -> float:
    """Shannon entropy (nats) of the label distribution of ``dataset``."""
    return _entropy(dataset.labels) if len(dataset) else 0.0


@register_discovery_method(
    "auto",
    aliases=("auto_slicer", "entropy"),
    description="Appendix-A entropy-driven recursive slicer",
)
class AutoSliceDiscovery(_SplitTree):
    """Label-entropy recursive slicing (Appendix A).

    Config
    ------
    max_depth:
        Maximum number of splits along any path.
    min_slice_size:
        Do not split a node whose children would fall below this size; this
        implements the appendix's warning against slices that are "not
        biased, but too small".
    entropy_threshold:
        Nodes whose label entropy is at or below this value are considered
        unbiased and are not split further.
    n_thresholds:
        Number of candidate split thresholds evaluated per feature.
    """

    _right_first = True

    @dataclass(frozen=True)
    class Config:
        max_depth: int = 3
        min_slice_size: int = 20
        entropy_threshold: float = 0.3
        n_thresholds: int = 8
        seed: int = 0

        def __post_init__(self) -> None:
            check_positive_int(self.max_depth, "max_depth")
            check_positive_int(self.min_slice_size, "min_slice_size")
            check_positive_int(self.n_thresholds, "n_thresholds")
            if self.entropy_threshold < 0:
                raise ConfigurationError(
                    f"entropy_threshold must be >= 0, got {self.entropy_threshold}"
                )

    def fit(self, model, dataset: Dataset, predictions=None):
        if len(dataset) == 0:
            raise ConfigurationError("cannot discover slices on an empty dataset")
        labels = dataset.labels
        return self._grow(
            dataset.features,
            lambda rows: _entropy(labels[rows]),
            lambda node: -node.order,
            floor=self.config.entropy_threshold,
            max_depth=self.config.max_depth,
        )
