"""Data slicing: slice definitions, partition management, slice discovery.

A *slice* is a named subset of the training data (Section 2.1 of the paper);
the slices partition the dataset.  The central container is
:class:`~repro.slices.sliced_dataset.SlicedDataset`, which keeps per-slice
training data, per-slice validation data, and per-slice acquisition cost, and
is the object the Slice Tuner core operates on.

Slices can be *given* (the paper's setting) or *discovered* through the
pluggable :mod:`~repro.slices.discovery` registry (``get_discovery_method`` /
``available_discovery_methods``): the Appendix-A entropy slicer
(``"auto"``) or one of the model-error driven methods, all of which live in
:mod:`~repro.slices.methods`.
"""

from repro.slices.discovery import (
    SliceDiscoveryMethod,
    available_discovery_methods,
    discovery_method_descriptions,
    get_discovery_method,
    is_discovery_method,
    register_discovery_method,
    unregister_discovery_method,
)
from repro.slices.predicates import FeaturePredicate, partition_by_predicates
from repro.slices.slice import Slice, SliceSpec
from repro.slices.sliced_dataset import SlicedDataset
from repro.slices.validation import (
    check_discovered_partition,
    check_partition,
    imbalance_ratio,
)

__all__ = [
    "Slice",
    "SliceSpec",
    "SlicedDataset",
    "FeaturePredicate",
    "partition_by_predicates",
    "SliceDiscoveryMethod",
    "register_discovery_method",
    "unregister_discovery_method",
    "get_discovery_method",
    "available_discovery_methods",
    "discovery_method_descriptions",
    "is_discovery_method",
    "check_partition",
    "check_discovered_partition",
    "imbalance_ratio",
]
