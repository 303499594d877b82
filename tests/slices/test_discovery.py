"""Slice discovery: registry behaviour, determinism, and dynamic re-slicing.

The load-bearing guarantees tested here:

* every built-in method is **seeded and deterministic** — two fits on the
  same data with the same config produce byte-identical slice specs and the
  same content fingerprint;
* the ``"auto"`` and ``"stump"`` methods' partitions of a fixed pool are
  pinned (same leaves, same names, same fingerprint);
* ``transform`` produces a valid partition (no overlap, full coverage) and
  preserves every row;
* a dynamic (``reslice_every``) tuner run is byte-identical across the
  serial and process executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.engine.executor import get_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import prepare_named_instance
from repro.curves.estimator import default_model_factory
from repro.ml.train import Trainer
from repro.slices.discovery import (
    SliceDiscoveryMethod,
    available_discovery_methods,
    discovery_method_descriptions,
    get_discovery_method,
    is_discovery_method,
    register_discovery_method,
    unregister_discovery_method,
)
from repro.slices.validation import check_discovered_partition
from repro.ml.data import Dataset
from repro.utils.exceptions import ConfigurationError

BUILTINS = ("auto", "kmeans", "stump")


def _trained_model(sliced, fast_training):
    pool = sliced.combined_train()
    model = default_model_factory(sliced.n_classes)
    Trainer(config=fast_training, random_state=0).fit(model, pool)
    return model, pool


# -- registry ----------------------------------------------------------------------

def test_builtins_are_registered():
    assert available_discovery_methods() == BUILTINS
    for name in BUILTINS:
        assert is_discovery_method(name)
    descriptions = discovery_method_descriptions()
    assert all(descriptions[name] for name in BUILTINS)


def test_aliases_resolve_to_primary_name():
    method = get_discovery_method("error_kmeans")
    assert method.name == "kmeans"
    assert get_discovery_method("RULES").name == "stump"
    assert get_discovery_method("auto_slicer").name == "auto"


def test_unknown_method_raises():
    with pytest.raises(ConfigurationError, match="unknown discovery method"):
        get_discovery_method("nope")
    assert not is_discovery_method("nope")


def test_register_and_unregister_custom_method():
    @register_discovery_method("custom_one", aliases=("c1",))
    class CustomDiscovery(SliceDiscoveryMethod):
        """A do-nothing single-region method."""

        def fit(self, model, dataset, predictions=None):
            return self._mark_fitted()

        def _assign_regions(self, features):
            return np.zeros(len(features), dtype=np.int64)

        def _region_names(self):
            return ["everything"]

        def _boundary_payload(self):
            return None

    try:
        assert is_discovery_method("custom_one")
        assert is_discovery_method("c1")
        method = get_discovery_method("c1")
        assert isinstance(method, CustomDiscovery)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_discovery_method("custom_one")(CustomDiscovery)
    finally:
        unregister_discovery_method("custom_one")
    assert not is_discovery_method("custom_one")
    assert not is_discovery_method("c1")


def test_invalid_config_kwargs_raise():
    with pytest.raises(ConfigurationError, match="invalid"):
        get_discovery_method("kmeans", not_a_knob=3)
    with pytest.raises(ConfigurationError, match="n_slices"):
        get_discovery_method("kmeans", n_slices=0)


@pytest.mark.parametrize(
    ("name", "knob", "value"),
    (
        ("stump", "n_thresholds", 2.5),
        ("stump", "max_slices", 2.5),
        ("stump", "min_slice_size", 2.5),
        ("stump", "max_slices", 0),
        ("kmeans", "n_slices", 2.5),
        ("kmeans", "n_iterations", 1.5),
        ("auto", "max_depth", 1.5),
    ),
)
def test_integer_knobs_reject_non_integers(name, knob, value):
    with pytest.raises(ConfigurationError, match=knob):
        get_discovery_method(name, **{knob: value})


def test_unfitted_method_refuses_everything(tiny_sliced):
    method = get_discovery_method("kmeans")
    with pytest.raises(ConfigurationError, match="fit"):
        method.transform(tiny_sliced)
    with pytest.raises(ConfigurationError, match="fit"):
        method.specs()


# -- determinism -------------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTINS)
def test_fit_is_deterministic_under_a_fixed_seed(name, tiny_sliced, fast_training):
    model, pool = _trained_model(tiny_sliced, fast_training)
    runs = []
    for _ in range(2):
        method = get_discovery_method(name, seed=7)
        method.fit(None if name == "auto" else model, pool)
        discovered = method.transform(tiny_sliced)
        runs.append(
            (
                method.fingerprint(),
                method.specs(),
                [len(discovered[n].train) for n in discovered.names],
                method.assign(pool.features).tolist(),
            )
        )
    assert runs[0] == runs[1]


def test_predictions_shortcut_matches_model(tiny_sliced, fast_training):
    model, pool = _trained_model(tiny_sliced, fast_training)
    predictions = model.predict(pool.features)
    via_model = get_discovery_method("kmeans", seed=3)
    via_model.fit(model, pool)
    via_model.transform(tiny_sliced)
    via_predictions = get_discovery_method("kmeans", seed=3)
    via_predictions.fit(None, pool, predictions=predictions)
    via_predictions.transform(tiny_sliced)
    assert via_model.fingerprint() == via_predictions.fingerprint()


@pytest.mark.parametrize("name", ("kmeans", "stump"))
def test_model_dependent_methods_need_model_or_predictions(
    name, tiny_sliced
):
    method = get_discovery_method(name)
    with pytest.raises(ConfigurationError, match="model|predictions"):
        method.fit(None, tiny_sliced.combined_train())


#: The ``"auto"`` partition of ``tiny_sliced``'s training pool, recorded when
#: the method was the only entropy slicer left: leaf names (in region order),
#: rows per leaf, and the boundary fingerprint.
AUTO_PINNED_LEAVES = (
    ("root/x0>2.314/x3>-0.035", 20),
    ("root/x0>2.314/x3<=-0.035", 20),
    ("root/x0<=2.314/x1>1.646/x2>0.268", 20),
    ("root/x0<=2.314/x1>1.646/x2<=0.268", 20),
    ("root/x0<=2.314/x1<=1.646/x1>-0.408", 20),
    ("root/x0<=2.314/x1<=1.646/x1<=-0.408", 20),
)
AUTO_PINNED_FINGERPRINT = (
    "76a8f01ec6e4d7addbcf666c921b3ccfb9e09f72e6a843a62abeec8aa0dd9dfc"
)


def test_auto_method_partition_is_pinned(tiny_sliced):
    pool = tiny_sliced.combined_train()
    kwargs = dict(max_depth=3, min_slice_size=20, entropy_threshold=0.2)
    method = get_discovery_method("auto", **kwargs)
    discovered = method.fit(None, pool).transform(pool)
    assert tuple(
        (name, len(discovered[name].train)) for name in discovered.names
    ) == AUTO_PINNED_LEAVES
    assert method.fingerprint() == AUTO_PINNED_FINGERPRINT


#: The ``"stump"`` partition of ``tiny_sliced``'s training pool under fixed
#: predictions (wrong wherever ``x0 + x1 > 1``), so no training or BLAS is
#: involved.  The unbalanced tree shows best-first growth (the leaf with the
#: most errors splits next) and the left-first region numbering.
STUMP_PINNED_LEAVES = (
    ("root/x2<=1.454/x0<=0.737/x1<=2.331", 12),
    ("root/x2<=1.454/x0<=0.737/x1>2.331", 14),
    ("root/x2<=1.454/x0>0.737", 54),
    ("root/x2>1.454/x1<=1.242", 27),
    ("root/x2>1.454/x1>1.242", 13),
)
STUMP_PINNED_FINGERPRINT = (
    "3bac15aa0eca581bf7de8de15fabfa80a934cc57020fb4912c3d982024a8fa56"
)


def test_stump_method_partition_is_pinned(tiny_sliced):
    pool = tiny_sliced.combined_train()
    x = pool.features
    predictions = np.where(
        x[:, 0] + x[:, 1] > 1.0, (pool.labels + 1) % 3, pool.labels
    )
    method = get_discovery_method("stump", max_slices=5, min_slice_size=10)
    discovered = method.fit(None, pool, predictions=predictions).transform(pool)
    assert tuple(
        (name, len(discovered[name].train)) for name in discovered.names
    ) == STUMP_PINNED_LEAVES
    assert method.fingerprint() == STUMP_PINNED_FINGERPRINT


# -- transform ---------------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTINS)
def test_transform_is_a_partition_preserving_every_row(
    name, tiny_sliced, fast_training
):
    model, pool = _trained_model(tiny_sliced, fast_training)
    method = get_discovery_method(name, seed=1)
    method.fit(None if name == "auto" else model, pool)
    discovered = method.transform(tiny_sliced)
    assert sum(len(discovered[n].train) for n in discovered.names) == len(pool)
    validation = tiny_sliced.combined_validation()
    assert sum(
        len(discovered[n].validation) for n in discovered.names
    ) == len(validation)
    assert discovered.n_classes == tiny_sliced.n_classes
    assert all(discovered[n].cost > 0 for n in discovered.names)
    # assign() routes the training rows back to the slice that holds them.
    assignments = method.assign(pool.features)
    for index, slice_name in enumerate(method.slice_names):
        rows = pool.subset(np.nonzero(assignments == index)[0])
        assert len(rows) == len(discovered[slice_name].train)


def test_transform_empty_dataset_raises(tiny_sliced):
    pool = tiny_sliced.combined_train()
    method = get_discovery_method("auto")
    method.fit(None, pool)
    with pytest.raises(ConfigurationError, match="empty"):
        method.transform(Dataset.empty(pool.n_features))


# -- the partition check (slices/validation.py) ------------------------------------

def _dataset(n: int) -> Dataset:
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, size=n))


def test_partition_check_accepts_a_clean_partition():
    data = _dataset(10)
    check_discovered_partition(
        data, {"a": np.arange(5), "b": np.arange(5, 10)}
    )


def test_partition_check_rejects_overlap():
    data = _dataset(10)
    with pytest.raises(ConfigurationError, match="overlap"):
        check_discovered_partition(
            data, {"a": np.arange(6), "b": np.arange(5, 10)}
        )


def test_partition_check_rejects_uncovered_rows():
    data = _dataset(10)
    with pytest.raises(ConfigurationError, match="uncovered|cover"):
        check_discovered_partition(
            data, {"a": np.arange(4), "b": np.arange(5, 10)}
        )


def test_partition_check_rejects_out_of_range_and_duplicates():
    data = _dataset(4)
    with pytest.raises(ConfigurationError, match="outside the dataset"):
        check_discovered_partition(data, {"a": np.array([0, 1, 2, 99])})
    with pytest.raises(ConfigurationError, match="twice"):
        check_discovered_partition(data, {"a": np.array([0, 1, 2, 3, 3])})


def test_partition_check_rejects_empty_mapping():
    with pytest.raises(ConfigurationError):
        check_discovered_partition(_dataset(3), {})


# -- dynamic re-slicing across executors -------------------------------------------

def _dynamic_run(executor):
    """One dynamic_slices-style run; returns (result json, reslice log)."""
    config = ExperimentConfig(
        dataset="adult_like",
        scenario="exponential",
        budget=500.0,
        methods=("conservative",),
        lam=1.0,
        trials=1,
        validation_size=60,
        curve_points=3,
        curve_repeats=1,
        epochs=8,
        seed=20_000,
        extra={"base_size": 60},
    )
    sliced, sources = prepare_named_instance(config, seed=config.seed)
    tuner = SliceTuner(
        sliced,
        trainer_config=config.training_config(),
        curve_config=config.curve_config(),
        config=SliceTunerConfig(
            discover="kmeans", reslice_every=2, max_iterations=6
        ),
        random_state=config.seed + 20_000,
        sources=sources,
        executor=executor,
    )
    session = tuner.session()
    reslices = []
    session.add_hook("reslice", reslices.append)
    for _ in session.stream(config.budget, strategy="conservative"):
        pass
    log = [
        (e.iteration, e.slice_generation, e.method, e.fingerprint, e.slice_names)
        for e in reslices
    ]
    return session.result().to_json(), log


def test_dynamic_run_is_identical_across_executors():
    with get_executor("serial") as serial_executor:
        serial_result, serial_log = _dynamic_run(serial_executor)
    with get_executor("process", max_workers=2) as process_executor:
        process_result, process_log = _dynamic_run(process_executor)
    assert serial_log, "the run never crossed a re-slice boundary"
    assert serial_log == process_log
    assert serial_result == process_result
