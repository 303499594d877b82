"""Error-driven feature-threshold rule induction (``"stump"``).

Grows a small decision tree of axis-aligned stumps over the
*misclassification indicator*: the leaf carrying the most misclassified
examples (the earliest-created one on ties) is repeatedly split on the
(feature, threshold) pair that most reduces the binary entropy of the error
indicator, until ``max_slices`` leaves exist or no split helps.  The leaves
are regions where the model's error behaviour is homogeneous — exactly the
slices worth tuning acquisition for.  The tree is the one in
:mod:`repro.slices.methods.tree`, shared with ``"auto"``; regions are
numbered left-first, and no random numbers are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.data import Dataset
from repro.slices.discovery import register_discovery_method
from repro.slices.methods.tree import _SplitTree
from repro.utils.validation import check_positive_int


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log(p) - (1.0 - p) * np.log(1.0 - p))


@register_discovery_method(
    "stump",
    aliases=("error_stump", "rules"),
    description="error-driven rule induction (stumps over misclassifications)",
)
class ErrorStumpDiscovery(_SplitTree):
    """Decision stumps over the misclassification indicator."""

    @dataclass(frozen=True)
    class Config:
        max_slices: int = 4
        min_slice_size: int = 30
        n_thresholds: int = 8
        seed: int = 0

        def __post_init__(self) -> None:
            check_positive_int(self.max_slices, "max_slices")
            check_positive_int(self.min_slice_size, "min_slice_size")
            check_positive_int(self.n_thresholds, "n_thresholds")

    def fit(self, model, dataset: Dataset, predictions=None):
        errors = self._error_indicator("stump", model, dataset, predictions)
        return self._grow(
            dataset.features,
            lambda rows: _binary_entropy(float(errors[rows].mean())),
            lambda node: (-errors[node.rows].sum(), node.order),
            floor=0.0,
            max_leaves=self.config.max_slices,
        )
