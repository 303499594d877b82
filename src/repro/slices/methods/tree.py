"""The split tree behind the ``"auto"`` and ``"stump"`` discovery methods.

Both grow one binary tree of axis-aligned ``x_f <= t`` splits and differ
only in the impurity a split must lower (a function of a row index into the
fit data) and in the growth order.  The split rule and search, the grow
loop, routing, region names and the boundary payload live here once.  Nodes
hold row indices into the fit data's feature matrix, and a fitted tree keeps
only its exact thresholds, which is what lets ``assign`` route future rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.slices.discovery import SliceDiscoveryMethod


@dataclass
class _Node:
    name: str
    rows: np.ndarray | None
    depth: int = 0
    order: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    region: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(
    features: np.ndarray,
    rows: np.ndarray,
    impurity: Callable[[np.ndarray], float],
    min_size: int,
    n_thresholds: int,
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """The (feature, threshold) split of ``rows`` with the largest impurity drop.

    Returns ``(feature, threshold, left_rows, right_rows)``, or ``None`` when
    no split leaves two children of at least ``min_size`` rows that lowers
    the size-weighted impurity by more than ``1e-9``.  Ties keep the first
    candidate in (feature, threshold) order.
    """
    n = len(rows)
    parent = impurity(rows)
    # Candidate cut points: evenly spaced quantiles plus the median, so a
    # clean 50/50 split (common for bimodal features) is always among them.
    quantiles = np.append(np.linspace(0.1, 0.9, n_thresholds), 0.5)
    best: tuple[float, int, float, np.ndarray] | None = None
    for feature in range(features.shape[1]):
        column = features[rows, feature]
        for threshold in np.unique(np.quantile(column, quantiles)):
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            n_right = n - n_left
            if n_left < min_size or n_right < min_size:
                continue
            children = (
                n_left * impurity(rows[left_mask])
                + n_right * impurity(rows[~left_mask])
            ) / n
            gain = parent - children
            if gain <= 1e-9:
                continue
            if best is None or gain > best[0]:
                best = (gain, feature, float(threshold), left_mask)
    if best is None:
        return None
    _, feature, threshold, left_mask = best
    return feature, threshold, rows[left_mask], rows[~left_mask]


class _SplitTree(SliceDiscoveryMethod):
    """Base of the tree methods: ``fit`` hands an impurity to :meth:`_grow`.

    The ``Config`` needs ``min_slice_size`` and ``n_thresholds``.  Regions
    are numbered depth-first, right children first if ``_right_first``.
    """

    _right_first = False

    def _grow(
        self,
        features: np.ndarray,
        impurity: Callable[[np.ndarray], float],
        next_leaf: Callable[[_Node], object],
        *,
        floor: float,
        max_depth: float = math.inf,
        max_leaves: float = math.inf,
    ) -> "_SplitTree":
        """Grow the tree over ``features`` and number its leaves.

        While fewer than ``max_leaves`` leaves exist, the open leaf with the
        smallest ``next_leaf(node)`` is expanded.  It splits when it is
        shallower than ``max_depth``, holds at least two minimum-size
        slices, its impurity is above ``floor`` and :func:`_best_split` finds
        a split; otherwise it closes for good.
        """
        min_size = self.config.min_slice_size
        root = _Node(name="root", rows=np.arange(len(features)))
        open_leaves = [root]
        n_leaves = 1
        while open_leaves and n_leaves < max_leaves:
            node = min(open_leaves, key=next_leaf)
            open_leaves.remove(node)
            if (
                node.depth >= max_depth
                or len(node.rows) < 2 * min_size
                or impurity(node.rows) <= floor
            ):
                continue
            split = _best_split(
                features, node.rows, impurity, min_size, self.config.n_thresholds
            )
            if split is None:
                continue
            feature, threshold, left_rows, right_rows = split
            node.feature, node.threshold = feature, threshold
            # ``order`` is the creation index: n leaves mean 2n - 1 nodes.
            prefix, order = f"{node.name}/x{feature}", 2 * n_leaves - 1
            node.left = _Node(
                f"{prefix}<={threshold:.3f}", left_rows, node.depth + 1, order
            )
            node.right = _Node(
                f"{prefix}>{threshold:.3f}", right_rows, node.depth + 1, order + 1
            )
            open_leaves += [node.left, node.right]
            n_leaves += 1

        # Number the leaves depth-first; a fitted tree pins no fit data.
        self._root = root
        self._leaves: list[_Node] = []
        stack = [root]
        while stack:
            node = stack.pop()
            node.rows = None
            if node.is_leaf:
                node.region = len(self._leaves)
                self._leaves.append(node)
            elif self._right_first:
                stack += [node.left, node.right]
            else:
                stack += [node.right, node.left]
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
