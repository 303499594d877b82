"""Tests for repro.engine.executor: backends, ordering, cache integration."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.engine.cache import InMemoryResultCache
from repro.engine.executor import (
    ProcessPoolExecutor,
    SerialExecutor,
    available_executors,
    get_executor,
)
from repro.engine.factories import get_model_factory
from repro.engine.job import TrainingJob
from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig
from repro.utils.exceptions import ConfigurationError


def make_jobs(rng, count=3) -> list[TrainingJob]:
    jobs = []
    for index in range(count):
        dataset = Dataset(rng.normal(size=(25, 3)), rng.integers(0, 2, size=25))
        jobs.append(
            TrainingJob(
                train=dataset,
                n_classes=2,
                seed=100 + index,
                trainer_config=TrainingConfig(epochs=2, batch_size=8),
                model_factory=get_model_factory("softmax"),
                factory_name="softmax",
                tag=index,
            )
        )
    return jobs


class TestSerialExecutor:
    def test_results_in_submission_order(self, rng):
        results = SerialExecutor().submit(make_jobs(rng))
        assert [result.tag for result in results] == [0, 1, 2]

    def test_cache_serves_repeats(self, rng):
        cache = InMemoryResultCache()
        executor = SerialExecutor(cache=cache)
        jobs = make_jobs(rng)
        first = executor.submit(jobs)
        second = executor.submit(jobs)
        assert all(not result.from_cache for result in first)
        assert all(result.from_cache for result in second)
        for fresh, cached in zip(first, second):
            np.testing.assert_array_equal(fresh.model.weights, cached.model.weights)

    def test_cached_result_carries_submitting_jobs_tag(self, rng):
        executor = SerialExecutor(cache=InMemoryResultCache())
        jobs = make_jobs(rng, count=1)
        executor.submit(jobs)
        retagged = TrainingJob(
            train=jobs[0].train,
            n_classes=jobs[0].n_classes,
            seed=jobs[0].seed,
            trainer_config=jobs[0].trainer_config,
            model_factory=jobs[0].model_factory,
            factory_name=jobs[0].factory_name,
            tag="new-tag",
        )
        (result,) = executor.submit([retagged])
        assert result.from_cache and result.tag == "new-tag"

    def test_map_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]


def _closure_factory():
    # A nested function: it cannot pickle, so its batch runs serially.
    def factory(n_classes):
        from repro.ml.linear import SoftmaxRegression

        return SoftmaxRegression(n_classes=n_classes, random_state=0)

    return factory


def make_mixed_wave(rng) -> list[TrainingJob]:
    """Stackable softmax jobs of several sizes, one MLP job, one closure job."""
    config = TrainingConfig(epochs=2, batch_size=8)
    jobs = make_jobs(rng, count=5)
    for index, size in enumerate((3, 8, 40)):
        dataset = Dataset(rng.normal(size=(size, 3)), rng.integers(0, 2, size=size))
        jobs.append(
            TrainingJob(
                train=dataset, n_classes=2, seed=300 + index,
                trainer_config=config, factory_name="softmax", tag=f"size-{size}",
            )
        )
    dataset = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30))
    jobs.append(
        TrainingJob(
            train=dataset, n_classes=2, seed=7, trainer_config=config,
            model_factory=get_model_factory("mlp"), factory_name="mlp", tag="mlp",
        )
    )
    jobs.append(
        TrainingJob(
            train=dataset, n_classes=2, seed=8, trainer_config=config,
            model_factory=_closure_factory(), factory_name="closure", tag="closure",
        )
    )
    return jobs


class TestProcessPoolExecutor:
    def test_matches_serial_results(self, rng):
        jobs = make_mixed_wave(rng)
        serial = SerialExecutor().submit(jobs)
        for max_workers in (1, 2):
            # Without the closure job the wave ships to the workers; with
            # it, the whole batch falls back to the parent.
            with ProcessPoolExecutor(max_workers=max_workers) as executor:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    shipped = executor.submit(jobs[:-1])
                assert executor._pool is not None
            with ProcessPoolExecutor(max_workers=max_workers) as executor:
                with pytest.warns(RuntimeWarning, match="not picklable"):
                    fallback = executor.submit(jobs)
                assert executor._pool is None
            for parallel in (shipped, fallback):
                tags = [job.tag for job in jobs[: len(parallel)]]
                assert [p.tag for p in parallel] == tags
                for s, p in zip(serial, parallel):
                    for a, b in zip(s.model.parameters(), p.model.parameters()):
                        np.testing.assert_array_equal(a, b)
                    assert s.training == p.training

    def test_groups_split_into_row_balanced_chunks(self, rng):
        from repro.engine.executor import _chunks

        jobs = make_mixed_wave(rng)
        group = [0, 1, 2, 3, 4, 5, 6, 7]
        chunks = _chunks(group, jobs, 3)
        assert len(chunks) == 3
        assert sorted(i for chunk in chunks for i in chunk) == group
        rows = [sum(len(jobs[i].train) for i in chunk) for chunk in chunks]
        assert max(rows) - min(rows) <= max(len(jobs[i].train) for i in group)
        assert len(_chunks([0, 1], jobs, 8)) == 2

    def test_unpicklable_factory_falls_back_to_serial(self, rng):
        dataset = Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))

        def closure_factory(n_classes):
            from repro.ml.linear import SoftmaxRegression

            return SoftmaxRegression(n_classes=n_classes, random_state=0)

        job = TrainingJob(
            train=dataset,
            n_classes=2,
            seed=1,
            trainer_config=TrainingConfig(epochs=2),
            model_factory=closure_factory,
            factory_name="closure",
        )
        with ProcessPoolExecutor(max_workers=1) as executor:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                (result,) = executor.submit([job])
        assert result.training.epochs_run == 2

    def test_map_matches_serial(self):
        with ProcessPoolExecutor(max_workers=1) as executor:
            assert executor.map(abs, [-3, 1, -2]) == [3, 1, 2]

    @pytest.mark.parametrize("kwargs", [{"max_workers": 0}, {"chunksize": 0}])
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProcessPoolExecutor(**kwargs)


class TestGetExecutor:
    def test_builds_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        executor = get_executor("process", max_workers=1)
        assert isinstance(executor, ProcessPoolExecutor)
        executor.close()

    def test_aliases_and_unknown(self):
        executor = get_executor("process_pool", max_workers=1)
        assert isinstance(executor, ProcessPoolExecutor)
        executor.close()
        with pytest.raises(ConfigurationError):
            get_executor("quantum")

    def test_available_names(self):
        assert set(available_executors()) == {"serial", "process"}
