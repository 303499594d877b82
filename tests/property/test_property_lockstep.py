"""Property test: lock-step training is bitwise the per-model training loop.

Hypothesis builds waves of 1–8 same-shape softmax jobs — sizes from 1 to
200 rows, including sizes below the batch size and exact multiples of it —
with random seeds, splits them into an arbitrary partition of lock-step
groups and trains the groups in an arbitrary order.  Every weight and bias
must be ``array_equal`` to what :class:`~repro.ml.train.Trainer` gives the
same model alone, so how jobs are grouped is purely a scheduling choice.

The same holds for how the data is held: a job training on a
:class:`~repro.ml.data.RowView` of a shared, shuffled pool ends bitwise
equal to one training on a materialized copy of its rows, in lock-step and
through :class:`~repro.ml.train.Trainer` with a validation split and early
stopping, and the two fingerprint alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.job import (
    TrainingJob,
    fingerprint_dataset,
    plan_training_jobs,
    run_training_jobs,
)
from repro.ml.data import Dataset, RowView
from repro.ml.linear import SoftmaxRegression
from repro.ml.train import Trainer, TrainingConfig, fit_lockstep


@st.composite
def waves(draw):
    """(config, n_classes, datasets, seeds, model seeds, groups in run order)."""
    batch = draw(st.sampled_from((1, 3, 8, 16, 32)))
    config = TrainingConfig(
        epochs=draw(st.integers(min_value=1, max_value=3)),
        batch_size=batch,
        optimizer=draw(st.sampled_from(("adam", "sgd", "momentum"))),
        learning_rate=draw(st.sampled_from((0.02, 0.1))),
    )
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    n_features = draw(st.integers(min_value=1, max_value=12))
    n_classes = draw(st.integers(min_value=2, max_value=6))
    sizes = st.one_of(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=max(1, 200 // batch)).map(
            lambda multiple: multiple * batch
        ),
        st.integers(min_value=1, max_value=max(1, batch - 1)),
    )
    data_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(data_seed)
    datasets = []
    for _ in range(n_jobs):
        size = draw(sizes)
        datasets.append(
            Dataset(
                rng.normal(size=(size, n_features)),
                rng.integers(0, n_classes, size=size),
            )
        )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**63 - 1),
            min_size=n_jobs,
            max_size=n_jobs,
        )
    )
    model_seeds = draw(
        st.lists(st.integers(0, 1000), min_size=n_jobs, max_size=n_jobs)
    )
    labels = draw(
        st.lists(st.integers(0, n_jobs - 1), min_size=n_jobs, max_size=n_jobs)
    )
    groups = [
        [index for index in range(n_jobs) if labels[index] == label]
        for label in draw(st.permutations(sorted(set(labels))))
    ]
    return config, n_classes, datasets, seeds, model_seeds, groups


def _as_views(datasets, seed):
    """Each dataset as a view of one shared pool holding all their rows.

    The pool is the datasets' rows in a random order, so every view gathers
    scattered rows; ``views[i]`` holds exactly ``datasets[i]``'s rows.
    """
    stacked = Dataset.concatenate(datasets)
    order = np.random.default_rng(seed).permutation(len(stacked))
    pool = stacked.subset(order)
    where = np.argsort(order)
    offsets = np.cumsum([0, *(len(data) for data in datasets)])
    return [RowView(pool, where[a:b]) for a, b in zip(offsets, offsets[1:])]


def _per_model(config, n_classes, datasets, seeds, model_seeds):
    """(models, training results) of the per-model loop, the oracle."""
    models, trainings = [], []
    for data, seed, model_seed in zip(datasets, seeds, model_seeds):
        model = SoftmaxRegression(n_classes=n_classes, random_state=model_seed)
        trainings.append(Trainer(config=config, random_state=seed).fit(model, data))
        models.append(model)
    return models, trainings


class TestLockstepIsBitwisePerModel:
    @settings(max_examples=60, deadline=None)
    @given(waves())
    def test_any_partition_and_order_matches_the_trainer(self, wave):
        config, n_classes, datasets, seeds, model_seeds, groups = wave
        expected, trainings = _per_model(
            config, n_classes, datasets, seeds, model_seeds
        )
        models = [
            SoftmaxRegression(n_classes=n_classes, random_state=model_seed)
            for model_seed in model_seeds
        ]
        for group in groups:
            results = fit_lockstep(
                [models[i] for i in group],
                [datasets[i] for i in group],
                [seeds[i] for i in group],
                config,
            )
            assert results == [trainings[i] for i in group]
        for lockstep, alone in zip(models, expected):
            assert np.array_equal(lockstep.weights, alone.weights)
            assert np.array_equal(lockstep.bias, alone.bias)

    @settings(max_examples=25, deadline=None)
    @given(waves())
    def test_engine_plan_matches_the_trainer(self, wave):
        config, n_classes, datasets, seeds, _, groups = wave
        jobs = [
            TrainingJob(
                train=data,
                n_classes=n_classes,
                seed=seed,
                trainer_config=config,
                factory_name="softmax",
                tag=index,
            )
            for index, (data, seed) in enumerate(zip(datasets, seeds))
        ]
        expected, trainings = _per_model(
            config, n_classes, datasets, seeds, [0] * len(jobs)
        )
        regrouped = plan_training_jobs(jobs)
        regrouped.groups = groups
        for plan in (None, regrouped):
            results = run_training_jobs(jobs, plan)
            assert [result.tag for result in results] == list(range(len(jobs)))
            for result, alone, training in zip(results, expected, trainings):
                assert np.array_equal(result.model.weights, alone.weights)
                assert np.array_equal(result.model.bias, alone.bias)
                assert result.training == training


class TestRowViewsAreBitwiseCopies:
    @settings(max_examples=40, deadline=None)
    @given(waves(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_lockstep_on_views_matches_the_trainer_on_copies(self, wave, pool_seed):
        config, n_classes, datasets, seeds, model_seeds, groups = wave
        views = _as_views(datasets, pool_seed)
        expected, trainings = _per_model(
            config, n_classes, datasets, seeds, model_seeds
        )
        models = [
            SoftmaxRegression(n_classes=n_classes, random_state=model_seed)
            for model_seed in model_seeds
        ]
        for group in groups:
            results = fit_lockstep(
                [models[i] for i in group],
                [views[i] for i in group],
                [seeds[i] for i in group],
                config,
            )
            assert results == [trainings[i] for i in group]
        for view, data, lockstep, alone in zip(views, datasets, models, expected):
            assert np.array_equal(view.features, data.features)
            assert np.array_equal(lockstep.weights, alone.weights)
            assert np.array_equal(lockstep.bias, alone.bias)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.sampled_from((0.1, 0.25, 0.4)),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_trainer_with_early_stopping_on_a_view_matches_a_copy(
        self, size, epochs, patience, fraction, restore_best, seed
    ):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.normal(size=(size, 5)), rng.integers(0, 3, size=size))
        view = _as_views([data, data.take(7)], seed)[0]
        config = TrainingConfig(
            epochs=epochs,
            batch_size=8,
            early_stopping_patience=patience,
            validation_fraction=fraction,
            restore_best=restore_best,
        )
        fitted = []
        for train in (data, view):
            model = SoftmaxRegression(n_classes=3, random_state=1)
            result = Trainer(config=config, random_state=seed).fit(model, train)
            fitted.append((model, result))
        (copy_model, copy_result), (view_model, view_result) = fitted
        assert view_result == copy_result
        assert np.array_equal(view_model.weights, copy_model.weights)
        assert np.array_equal(view_model.bias, copy_model.bias)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fingerprint_of_a_view_is_the_fingerprint_of_its_copy(
        self, size, n_features, seed
    ):
        rng = np.random.default_rng(seed)
        pool = Dataset(
            rng.normal(size=(max(size, 1), n_features)),
            rng.integers(0, 4, size=max(size, 1)),
        )
        view = RowView(pool, rng.integers(0, len(pool), size=size))
        copy = Dataset(view.features, view.labels)
        assert fingerprint_dataset(view) == fingerprint_dataset(copy)
        job = dict(n_classes=4, seed=seed, factory_name="softmax")
        assert (
            TrainingJob(train=view, **job).fingerprint
            == TrainingJob(train=copy, **job).fingerprint
        )
