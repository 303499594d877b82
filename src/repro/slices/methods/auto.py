"""Automatic slicing (Appendix A of the paper) as the ``"auto"`` discovery
method.

The paper sketches a decision-tree style procedure: starting from the whole
dataset, iteratively split slices that are *biased* — i.e. whose examples are
heterogeneous enough that acquiring one example is not interchangeable with
acquiring another — until every leaf slice is acceptably unbiased or a depth
or size limit is hit.

Bias is measured here with the label-entropy of a candidate slice combined
with the entropy drop of the best feature split, which follows the
appendix's suggestion of an "entropy-based measure" and standard decision
tree practice.  The fitted split tree keeps exact (unrounded) thresholds,
which is what lets :meth:`assign` route *future* rows — acquired examples —
into the discovered slices.

The method is label-entropy driven and ignores the model entirely
(``fit(model=None, dataset)`` is fine), matching the appendix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.data import Dataset
from repro.slices.discovery import SliceDiscoveryMethod, register_discovery_method
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int


def label_entropy(dataset: Dataset) -> float:
    """Shannon entropy (nats) of the label distribution of ``dataset``."""
    if len(dataset) == 0:
        return 0.0
    counts = np.bincount(dataset.labels)
    probabilities = counts[counts > 0] / counts.sum()
    return float(-np.sum(probabilities * np.log(probabilities)))


def _best_split(
    dataset: Dataset, min_slice_size: int, n_thresholds: int
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """Find the (feature, threshold) split with the largest entropy drop.

    Returns ``(feature, threshold, left_rows, right_rows)``, or ``None`` when
    no split produces two children of at least ``min_slice_size`` examples
    or no split reduces entropy.
    """
    parent_entropy = label_entropy(dataset)
    best: tuple[float, int, float, np.ndarray, np.ndarray] | None = None
    n = len(dataset)
    for feature in range(dataset.n_features):
        column = dataset.features[:, feature]
        # Candidate cut points: evenly spaced quantiles plus the median,
        # so a clean 50/50 split (common for bimodal features) is always
        # among the candidates.
        quantiles = np.append(np.linspace(0.1, 0.9, n_thresholds), 0.5)
        for threshold in np.unique(np.quantile(column, quantiles)):
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            n_right = n - n_left
            if n_left < min_slice_size or n_right < min_slice_size:
                continue
            left = dataset.subset(np.nonzero(left_mask)[0])
            right = dataset.subset(np.nonzero(~left_mask)[0])
            children_entropy = (
                n_left * label_entropy(left) + n_right * label_entropy(right)
            ) / n
            gain = parent_entropy - children_entropy
            if gain <= 1e-9:
                continue
            if best is None or gain > best[0]:
                best = (
                    gain,
                    feature,
                    float(threshold),
                    np.nonzero(left_mask)[0],
                    np.nonzero(~left_mask)[0],
                )
    if best is None:
        return None
    _, feature, threshold, left_idx, right_idx = best
    return feature, threshold, left_idx, right_idx


@dataclass
class _Node:
    name: str
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    region: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@register_discovery_method(
    "auto",
    aliases=("auto_slicer", "entropy"),
    description="Appendix-A entropy-driven recursive slicer",
)
class AutoSliceDiscovery(SliceDiscoveryMethod):
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
        config = self.config
        # Depth-first over a LIFO frontier: a split pushes its left then its
        # right child, so right subtrees are expanded (and become leaves)
        # first.  Leaf order is region order, so it is part of the output.
        root = _Node(name="root")
        frontier: list[tuple[_Node, Dataset, int]] = [(root, dataset, 0)]
        leaves: list[_Node] = []
        while frontier:
            node, node_dataset, depth = frontier.pop()
            should_split = (
                depth < config.max_depth
                and label_entropy(node_dataset) > config.entropy_threshold
                and len(node_dataset) >= 2 * config.min_slice_size
            )
            split = (
                _best_split(node_dataset, config.min_slice_size, config.n_thresholds)
                if should_split
                else None
            )
            if split is None:
                node.region = len(leaves)
                leaves.append(node)
                continue
            feature, threshold, left_idx, right_idx = split
            node.feature = feature
            node.threshold = threshold
            node.left = _Node(name=f"{node.name}/x{feature}<={threshold:.3f}")
            node.right = _Node(name=f"{node.name}/x{feature}>{threshold:.3f}")
            frontier.append((node.left, node_dataset.subset(left_idx), depth + 1))
            frontier.append((node.right, node_dataset.subset(right_idx), depth + 1))
        self._root = root
        self._leaves = leaves
        return self._mark_fitted()

    def _assign_regions(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        out = np.zeros(len(features), dtype=np.int64)
        self._route(self._root, np.arange(len(features)), features, out)
        return out

    def _route(
        self, node: _Node, rows: np.ndarray, features: np.ndarray, out: np.ndarray
    ) -> None:
        if node.is_leaf:
            out[rows] = node.region
            return
        mask = features[rows, node.feature] <= node.threshold
        self._route(node.left, rows[mask], features, out)
        self._route(node.right, rows[~mask], features, out)

    def _region_names(self) -> list[str]:
        return [leaf.name for leaf in self._leaves]

    def _boundary_payload(self) -> object:
        def serialize(node: _Node) -> dict:
            if node.is_leaf:
                return {"region": node.region, "name": node.name}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "left": serialize(node.left),
                "right": serialize(node.right),
            }

        return serialize(self._root)
