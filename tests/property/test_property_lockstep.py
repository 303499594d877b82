"""Property test: lock-step training is bitwise the per-model training loop.

Hypothesis builds waves of 1–8 same-shape jobs — softmax models, or MLPs
with 0–2 random hidden layers — with sizes from 1 to 200 rows, including
sizes below the batch size and exact multiples of it, random seeds and all
three optimizers.  It splits them into an arbitrary partition of lock-step
groups and trains the groups in an arbitrary order.  Every parameter must
be ``array_equal`` to what the plain per-model loop of
``tests/ml/training_oracle.py`` gives the same model alone, so how jobs are
grouped is purely a scheduling choice.

The same holds for how the data is held: a job training on a
:class:`~repro.ml.data.RowView` of a shared, shuffled pool ends bitwise
equal to one training on a materialized copy of its rows, and the two
fingerprint alike.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.factories import MLPFactory
from repro.engine.job import (
    TrainingJob,
    fingerprint_dataset,
    plan_training_jobs,
    run_training_jobs,
)
from repro.ml.data import Dataset, RowView
from repro.ml.linear import SoftmaxRegression
from repro.ml.train import TrainingConfig, fit_lockstep
from tests.ml.training_oracle import train_alone


@st.composite
def waves(draw, mlp=False):
    """(config, n_classes, hidden sizes, datasets, seeds, model seeds, groups
    in run order); the hidden sizes are ``None`` for softmax waves."""
    batch = draw(st.sampled_from((1, 3, 8, 16, 32)))
    config = TrainingConfig(
        epochs=draw(st.integers(min_value=1, max_value=3)),
        batch_size=batch,
        optimizer=draw(st.sampled_from(("adam", "sgd", "momentum"))),
        learning_rate=draw(st.sampled_from((0.02, 0.1))),
    )
    hidden = (
        tuple(draw(st.lists(st.integers(min_value=1, max_value=8), max_size=2)))
        if mlp
        else None
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
    return config, n_classes, hidden, datasets, seeds, model_seeds, groups


def _model(n_classes, hidden, model_seed):
    """A fresh softmax model (``hidden`` is ``None``) or MLP."""
    if hidden is None:
        return SoftmaxRegression(n_classes=n_classes, random_state=model_seed)
    return MLPFactory(hidden_sizes=hidden, random_state=model_seed)(n_classes)


def _factory(hidden):
    """A model factory for engine jobs, seeded as :func:`_model` with 0."""
    if hidden is None:
        return partial(SoftmaxRegression, random_state=0)
    return MLPFactory(hidden_sizes=hidden, random_state=0)


def _assert_bitwise(models, expected):
    for model, alone in zip(models, expected, strict=True):
        for got, want in zip(model.parameters(), alone.parameters(), strict=True):
            assert np.array_equal(got, want)


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


def _per_model(config, n_classes, hidden, datasets, seeds, model_seeds):
    """(models, training results) of the per-model loop, the oracle."""
    models, trainings = [], []
    for data, seed, model_seed in zip(datasets, seeds, model_seeds):
        model = _model(n_classes, hidden, model_seed)
        trainings.append(train_alone(model, data, seed, config))
        models.append(model)
    return models, trainings


def _lockstep_matches_the_oracle(wave, views=None):
    """Train ``wave``'s groups in lock-step (on ``views`` if given)."""
    config, n_classes, hidden, datasets, seeds, model_seeds, groups = wave
    expected, trainings = _per_model(
        config, n_classes, hidden, datasets, seeds, model_seeds
    )
    models = [_model(n_classes, hidden, model_seed) for model_seed in model_seeds]
    data = datasets if views is None else views
    for group in groups:
        results = fit_lockstep(
            [models[i] for i in group],
            [data[i] for i in group],
            [seeds[i] for i in group],
            config,
        )
        assert results == [trainings[i] for i in group]
    _assert_bitwise(models, expected)


def _engine_plan_matches_the_oracle(wave):
    config, n_classes, hidden, datasets, seeds, _, groups = wave
    jobs = [
        TrainingJob(
            train=data,
            n_classes=n_classes,
            seed=seed,
            trainer_config=config,
            model_factory=_factory(hidden),
            tag=index,
        )
        for index, (data, seed) in enumerate(zip(datasets, seeds))
    ]
    expected, trainings = _per_model(
        config, n_classes, hidden, datasets, seeds, [0] * len(jobs)
    )
    regrouped = plan_training_jobs(jobs)
    assert len(regrouped.groups) == 1
    regrouped.groups = groups
    for plan in (None, regrouped):
        results = run_training_jobs(jobs, plan)
        assert [result.tag for result in results] == list(range(len(jobs)))
        assert [result.training for result in results] == trainings
        _assert_bitwise([result.model for result in results], expected)


class TestLockstepIsBitwisePerModel:
    @settings(max_examples=60, deadline=None)
    @given(waves())
    def test_any_partition_and_order_matches_the_trainer(self, wave):
        _lockstep_matches_the_oracle(wave)

    @settings(max_examples=25, deadline=None)
    @given(waves())
    def test_engine_plan_matches_the_trainer(self, wave):
        _engine_plan_matches_the_oracle(wave)


class TestMLPLockstepIsBitwisePerModel:
    @settings(max_examples=40, deadline=None)
    @given(waves(mlp=True))
    def test_any_partition_and_order_matches_the_oracle(self, wave):
        _lockstep_matches_the_oracle(wave)

    @settings(max_examples=20, deadline=None)
    @given(waves(mlp=True))
    def test_engine_plan_matches_the_oracle(self, wave):
        _engine_plan_matches_the_oracle(wave)


class TestRowViewsAreBitwiseCopies:
    @settings(max_examples=40, deadline=None)
    @given(waves(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_lockstep_on_views_matches_the_trainer_on_copies(self, wave, pool_seed):
        datasets = wave[3]
        views = _as_views(datasets, pool_seed)
        _lockstep_matches_the_oracle(wave, views)
        for view, data in zip(views, datasets):
            assert np.array_equal(view.features, data.features)

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
