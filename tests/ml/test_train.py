"""Tests for repro.ml.train."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import Dataset
from repro.ml.linear import SoftmaxRegression
from repro.ml.train import Trainer, TrainingConfig, fit_lockstep, train_model
from repro.utils.exceptions import ConfigurationError


class TestTrainingConfig:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.epochs > 0 and config.batch_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"early_stopping_patience": -1},
            {"validation_fraction": 1.0},
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

    def test_validation_losses_tracked(self, separable_dataset, fast_training):
        train = separable_dataset.take(80)
        validation = separable_dataset.subset(np.arange(80, len(separable_dataset)))
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, train, validation
        )
        assert len(result.validation_losses) == result.epochs_run

    def test_early_stopping_stops_before_max_epochs(self):
        # Random labels carry no signal, so validation loss stops improving
        # almost immediately and the patience criterion must kick in.
        rng = np.random.default_rng(0)
        train = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 2, size=60))
        validation = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 2, size=40))
        config = TrainingConfig(
            epochs=200,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early
        assert result.epochs_run < 200

    def test_internal_validation_split_used(self, separable_dataset):
        config = TrainingConfig(
            epochs=50,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
            validation_fraction=0.25,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert len(result.validation_losses) > 0

    def test_batch_size_larger_than_dataset(self, separable_dataset):
        config = TrainingConfig(epochs=5, batch_size=10_000, learning_rate=0.1)
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert result.epochs_run == 5

    def test_train_model_convenience_wrapper(self, separable_dataset, fast_training):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = train_model(
            model, separable_dataset, config=fast_training, random_state=0
        )
        assert result.epochs_run == fast_training.epochs


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
            expected = Trainer(config=fast_training, random_state=seed).fit(alone, data)
            np.testing.assert_array_equal(model.weights, alone.weights)
            np.testing.assert_array_equal(model.bias, alone.bias)
            assert result == expected

    def test_rejects_early_stopping_and_empty_data(self, separable_dataset):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        stopping = TrainingConfig(early_stopping_patience=2)
        with pytest.raises(ConfigurationError):
            fit_lockstep([model], [separable_dataset], [0], stopping)
        with pytest.raises(ConfigurationError):
            fit_lockstep([model], [Dataset.empty(2)], [0], TrainingConfig())


class TestRestoreBest:
    """The ``restore_best`` early-stopping flag (off by default)."""

    @staticmethod
    def _noisy_split(rng):
        train = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 2, size=60))
        validation = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 2, size=40))
        return train, validation

    def test_default_keeps_post_patience_weights(self, rng):
        train, validation = self._noisy_split(rng)
        config = TrainingConfig(
            epochs=200, batch_size=16, learning_rate=0.1, early_stopping_patience=3
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early and not result.restored_best
        # The final weights correspond to the *last* epoch, not the best one.
        assert model.loss(validation) == pytest.approx(result.validation_losses[-1])

    def test_restore_best_restores_best_epoch_parameters(self, rng):
        train, validation = self._noisy_split(rng)
        config = TrainingConfig(
            epochs=200,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
            restore_best=True,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early and result.restored_best
        assert result.best_epoch is not None
        best_loss = min(result.validation_losses)
        assert result.validation_losses[result.best_epoch - 1] == pytest.approx(best_loss)
        assert model.loss(validation) == pytest.approx(best_loss)
        assert model.loss(validation) <= result.validation_losses[-1]

    def test_best_epoch_tracked_without_restore(self, separable_dataset, fast_training):
        train = separable_dataset.take(80)
        validation = separable_dataset.subset(np.arange(80, len(separable_dataset)))
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, train, validation
        )
        assert result.best_epoch is not None and not result.restored_best

    def test_restore_best_without_early_stopping_is_inert(self, separable_dataset):
        config = TrainingConfig(epochs=5, batch_size=16, restore_best=True)
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert not result.restored_best
