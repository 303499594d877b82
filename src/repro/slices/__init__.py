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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Slice": ".slice",
    "SliceSpec": ".slice",
    "SlicedDataset": ".sliced_dataset",
    "FeaturePredicate": ".predicates",
    "partition_by_predicates": ".predicates",
    "SliceDiscoveryMethod": ".discovery",
    "register_discovery_method": ".discovery",
    "unregister_discovery_method": ".discovery",
    "get_discovery_method": ".discovery",
    "available_discovery_methods": ".discovery",
    "discovery_method_descriptions": ".discovery",
    "is_discovery_method": ".discovery",
    "check_partition": ".validation",
    "check_discovered_partition": ".validation",
    "imbalance_ratio": ".validation",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
