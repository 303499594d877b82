"""Tests for the Appendix-A ``"auto"`` discovery method (repro.slices.methods.auto)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import Dataset
from repro.slices.discovery import get_discovery_method
from repro.slices.methods.auto import label_entropy
from repro.utils.exceptions import ConfigurationError


def biased_dataset(n_per_group: int = 80) -> Dataset:
    """Two clearly separated groups with different labels: splittable."""
    rng = np.random.default_rng(0)
    left = rng.normal(loc=(-3.0, 0.0), scale=0.4, size=(n_per_group, 2))
    right = rng.normal(loc=(3.0, 0.0), scale=0.4, size=(n_per_group, 2))
    features = np.vstack([left, right])
    labels = np.array([0] * n_per_group + [1] * n_per_group)
    return Dataset(features, labels)


def homogeneous_dataset(n: int = 100) -> Dataset:
    rng = np.random.default_rng(1)
    return Dataset(rng.normal(size=(n, 2)), np.zeros(n, dtype=int))


class TestLabelEntropy:
    def test_single_class_zero(self):
        assert label_entropy(homogeneous_dataset()) == pytest.approx(0.0)

    def test_balanced_two_classes(self):
        assert label_entropy(biased_dataset()) == pytest.approx(np.log(2))

    def test_empty_dataset(self):
        assert label_entropy(Dataset.empty(2)) == 0.0


def auto_slices(dataset: Dataset, **kwargs) -> dict[str, Dataset]:
    """Fit ``"auto"`` on ``dataset`` and return ``{leaf name: leaf rows}``."""
    discovered = get_discovery_method("auto", **kwargs).fit(None, dataset).transform(
        dataset
    )
    return {name: discovered[name].train for name in discovered.names}


def depth(leaf_name: str) -> int:
    """Number of splits encoded in a path-style leaf name."""
    return leaf_name.count("/")


class TestAutoSlicer:
    def test_splits_biased_dataset(self):
        leaves = auto_slices(
            biased_dataset(), max_depth=2, min_slice_size=20, entropy_threshold=0.2
        )
        assert len(leaves) >= 2
        # The split should isolate the label groups: leaves become pure.
        assert all(label_entropy(leaf) < 0.2 for leaf in leaves.values())

    def test_leaves_form_partition(self):
        dataset = biased_dataset()
        leaves = auto_slices(dataset, max_depth=3, min_slice_size=10)
        assert sum(len(leaf) for leaf in leaves.values()) == len(dataset)

    def test_homogeneous_dataset_not_split(self):
        leaves = auto_slices(homogeneous_dataset(), entropy_threshold=0.3)
        assert list(leaves) == ["root"]

    def test_min_slice_size_prevents_tiny_leaves(self):
        leaves = auto_slices(biased_dataset(40), max_depth=5, min_slice_size=30)
        assert all(len(leaf) >= 30 for leaf in leaves.values())

    def test_max_depth_limits_splitting(self):
        leaves = auto_slices(
            biased_dataset(), max_depth=1, min_slice_size=5, entropy_threshold=0.0
        )
        assert all(depth(name) <= 1 for name in leaves)

    def test_slice_as_mapping(self):
        method = get_discovery_method("auto", max_depth=2, min_slice_size=20)
        discovered = method.fit(None, biased_dataset()).transform(biased_dataset())
        assert all(isinstance(name, str) for name in discovered.names)
        assert list(discovered.names) == method.slice_names

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_discovery_method("auto").fit(None, Dataset.empty(2))

    def test_invalid_parameters_rejected(self):
        for knob, value in (
            ("max_depth", 0),
            ("entropy_threshold", -1.0),
            ("min_slice_size", 0),
            ("n_thresholds", 0),
        ):
            with pytest.raises(ConfigurationError, match=knob):
                get_discovery_method("auto", **{knob: value})
