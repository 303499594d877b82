"""Tests for repro.engine.job: specs, fingerprints, and the worker function."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.factories import describe_factory, get_model_factory
from repro.engine.job import (
    TrainingJob,
    fingerprint_dataset,
    run_training_job,
    stable_seed,
)
from repro.experiments.config import fast_training_config
from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig


@pytest.fixture
def dataset(rng) -> Dataset:
    return Dataset(rng.normal(size=(30, 4)), rng.integers(0, 2, size=30))


def make_job(dataset, **overrides) -> TrainingJob:
    defaults = dict(
        train=dataset,
        n_classes=2,
        seed=7,
        trainer_config=TrainingConfig(epochs=3),
        model_factory=get_model_factory("softmax"),
        factory_name="softmax",
    )
    defaults.update(overrides)
    return TrainingJob(**defaults)


class TestFingerprints:
    def test_dataset_fingerprint_is_content_addressed(self, dataset):
        same = Dataset(dataset.features.copy(), dataset.labels.copy())
        assert fingerprint_dataset(dataset) == fingerprint_dataset(same)

    def test_dataset_fingerprint_changes_with_content(self, dataset):
        changed = Dataset(dataset.features + 1e-9, dataset.labels)
        assert fingerprint_dataset(dataset) != fingerprint_dataset(changed)

    def test_dataset_fingerprint_digests_are_pinned(self):
        # Persisted cache rows are keyed by these digests: a change to the
        # hashing must keep every existing key.
        data = Dataset(
            np.arange(2500 * 3, dtype=np.float64).reshape(2500, 3) / 7,
            np.arange(2500) % 4,
        )
        assert fingerprint_dataset(data) == (
            "25687dd40d0519f12bdc20f368dc5aa0f706f62df2f68d14e168e8cedd24bc96"
        )
        assert fingerprint_dataset(Dataset.empty(3)) == (
            "f807224df588d29df551d1e979e678b0dd90b0895a3405b58d1cd3491746d910"
        )

    def test_job_fingerprint_digests_are_pinned(self, dataset):
        # Persisted cache rows are keyed by these digests: a change to the
        # job spec or to TrainingConfig must keep every existing key.
        job = dict(train=dataset, n_classes=2, seed=7, factory_name="softmax")
        assert TrainingJob(**job).fingerprint == (
            "c76d7827f3f3adf2f0215c93456cfa01b26041ee4e5eca605e53521966a96c25"
        )
        fast = TrainingJob(trainer_config=fast_training_config(), **job)
        assert fast.fingerprint == (
            "a5585113c8492946f551d2fb9dbbc394a54408f104e5444eff9670179f64407e"
        )

    def test_job_fingerprint_stable_across_instances(self, dataset):
        assert make_job(dataset).fingerprint == make_job(dataset).fingerprint

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 8},
            {"n_classes": 3},
            {"trainer_config": TrainingConfig(epochs=4)},
            {"factory_name": "mlp", "model_factory": get_model_factory("mlp")},
        ],
    )
    def test_job_fingerprint_sensitive_to_spec(self, dataset, overrides):
        assert make_job(dataset).fingerprint != make_job(dataset, **overrides).fingerprint

    def test_tag_not_fingerprinted(self, dataset):
        assert (
            make_job(dataset, tag="a").fingerprint
            == make_job(dataset, tag="b").fingerprint
        )

    def test_stable_seed_is_process_stable_and_63_bit(self):
        assert stable_seed(1, "x") == stable_seed(1, "x")
        assert stable_seed(1, "x") != stable_seed(1, "y")
        assert 0 <= stable_seed(123, "abc") < 2**63


class TestRunTrainingJob:
    def test_returns_trained_model_and_result(self, dataset):
        result = run_training_job(make_job(dataset))
        assert result.training.epochs_run == 3
        assert not result.from_cache
        assert result.model.predict(dataset.features).shape == (len(dataset),)

    def test_same_job_same_weights(self, dataset):
        first = run_training_job(make_job(dataset))
        second = run_training_job(make_job(dataset))
        np.testing.assert_array_equal(first.model.weights, second.model.weights)

    def test_factory_resolved_by_name_when_callable_missing(self, dataset):
        job = make_job(dataset, model_factory=None, factory_name="softmax")
        result = run_training_job(job)
        assert result.training.epochs_run == 3


class TestDescribeFactory:
    def test_registered_factory_resolves_to_registry_name(self):
        assert describe_factory(get_model_factory("softmax")) == "softmax"

    def test_plain_function_uses_qualname(self):
        def my_factory(n_classes):
            return None

        assert "my_factory" in describe_factory(my_factory)

    def test_dataclass_factory_uses_repr(self):
        from repro.engine.factories import MLPFactory

        name = describe_factory(MLPFactory(hidden_sizes=(8,)))
        assert "MLPFactory" in name and "8" in name

    def test_none_is_named(self):
        assert describe_factory(None) == "<none>"
