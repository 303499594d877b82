"""Tests for repro.ml.train."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import Dataset
from repro.ml.linear import SoftmaxRegression
from repro.ml.train import Trainer, TrainingConfig, fit_lockstep
from repro.utils.exceptions import ConfigurationError
from tests.ml.training_oracle import train_alone


class TestTrainingConfig:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.epochs > 0 and config.batch_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def test_returns_result_with_losses(self, separable_dataset, fast_training):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        model.initialize(separable_dataset.n_features)
        loss_before = model.loss(separable_dataset)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, separable_dataset
        )
        assert result.epochs_run == fast_training.epochs
        assert model.loss(separable_dataset) < loss_before

    def test_training_is_deterministic_given_seeds(self, separable_dataset, fast_training):
        models = []
        for _ in range(2):
            model = SoftmaxRegression(n_classes=2, random_state=5)
            Trainer(config=fast_training, random_state=9).fit(model, separable_dataset)
            models.append(model)
        np.testing.assert_array_equal(models[0].weights, models[1].weights)
        np.testing.assert_array_equal(models[0].bias, models[1].bias)

    def test_empty_dataset_rejected(self, fast_training):
        with pytest.raises(ConfigurationError):
            Trainer(config=fast_training).fit(
                SoftmaxRegression(n_classes=2), Dataset.empty(3)
            )

    def test_batch_size_larger_than_dataset(self, separable_dataset):
        config = TrainingConfig(epochs=5, batch_size=10_000, learning_rate=0.1)
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert result.epochs_run == 5


class TestLabelCheck:
    """Labels are range-checked once per fit, before any training step."""

    def test_trainer_rejects_out_of_range_label_before_training(self, fast_training):
        dataset = Dataset(np.zeros((5, 2)), np.array([0, 1, 0, 2, 1]))
        model = SoftmaxRegression(n_classes=2, random_state=0)
        with pytest.raises(ValueError, match="labels must lie"):
            Trainer(config=fast_training).fit(model, dataset)
        assert not model.is_initialized

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("label", [-1, 2])
    def test_any_bad_job_stops_the_whole_group(self, rng, fast_training, bad, label):
        datasets = [
            Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
            for _ in range(3)
        ]
        datasets[bad].labels[7] = label
        models = [SoftmaxRegression(n_classes=2, random_state=0) for _ in datasets]
        with pytest.raises(ValueError, match="labels must lie"):
            fit_lockstep(models, datasets, [1, 2, 3], fast_training)
        assert not any(model.is_initialized for model in models)


class TestFitLockstep:
    @pytest.mark.parametrize("window_bytes", [1, 1 << 19])
    def test_matches_trainer_for_each_model(
        self, rng, fast_training, monkeypatch, window_bytes
    ):
        # One byte gathers a single step per refill, so refills cross
        # every epoch boundary.
        monkeypatch.setattr("repro.ml.train._WINDOW_BYTES", window_bytes)
        datasets = [
            Dataset(rng.normal(size=(size, 3)), rng.integers(0, 3, size=size))
            for size in (5, 16, 33, 100)
        ]
        models = [SoftmaxRegression(n_classes=3, random_state=0) for _ in datasets]
        results = fit_lockstep(models, datasets, [4, 3, 2, 1], fast_training)
        for model, data, seed, result in zip(models, datasets, [4, 3, 2, 1], results):
            alone = SoftmaxRegression(n_classes=3, random_state=0)
            expected = train_alone(alone, data, seed, fast_training)
            np.testing.assert_array_equal(model.weights, alone.weights)
            np.testing.assert_array_equal(model.bias, alone.bias)
            assert result == expected

    def test_rejects_empty_data(self):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        with pytest.raises(ConfigurationError):
            fit_lockstep([model], [Dataset.empty(2)], [0], TrainingConfig())
