"""What a wave of learning-curve jobs costs to build and to ship.

Curve jobs train on row views of one shared copy of the slice pools, so
building the paper-config fashion_like job list allocates one copy of the
data plus 8 bytes per selected row.  Copying each job's rows instead cost
~60 MB for the exhaustive protocol's 60 jobs and ~6.8 MB for an amortized
wave at the slice sizes of a tuning run's third estimate.

A process pool ships no more than before: a job on a row view pickles as
the same job on a copy of its rows, and to no more bytes.
"""

from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.curves.estimator import LearningCurveEstimator
from repro.datasets.registry import build_task
from repro.engine.executor import SerialExecutor
from repro.experiments.config import ExperimentConfig
from repro.ml.data import Dataset, RowView

PAPER = ExperimentConfig()

#: Slice sizes at the third estimate of a paper-config ``moderate`` run.
THIRD_ESTIMATE = (245, 200, 653, 204, 701, 200, 799, 200, 200, 200)

MB = 1_000_000


class _Built(Exception):
    """Raised by :class:`_Capture` once the estimator submits its jobs."""


class _Capture(SerialExecutor):
    """Records the submitted job list and the traced peak, then stops."""

    def submit(self, jobs):
        self.peak = tracemalloc.get_traced_memory()[1]
        self.jobs = list(jobs)
        raise _Built


def _job_list(strategy, sizes):
    """(jobs, bytes allocated at peak while building them) for one estimate."""
    task = build_task(PAPER.dataset)
    sliced = task.initial_sliced_dataset(
        dict(zip(task.slice_names, sizes)),
        validation_size=PAPER.validation_size,
        random_state=0,
    )
    capture = _Capture()
    estimator = LearningCurveEstimator(
        trainer_config=PAPER.training_config(),
        config=PAPER.curve_config(strategy),
        random_state=0,
        executor=capture,
    )
    tracemalloc.start()
    try:
        with pytest.raises(_Built):
            estimator.estimate(sliced)
    finally:
        tracemalloc.stop()
    return capture.jobs, capture.peak


@pytest.fixture(scope="module")
def exhaustive():
    return _job_list("exhaustive", [200] * 10)


@pytest.fixture(scope="module")
def amortized():
    return _job_list("amortized", THIRD_ESTIMATE)


def test_exhaustive_job_list_allocates_one_copy(exhaustive):
    jobs, peak = exhaustive
    assert len(jobs) == 60
    assert sum(len(job.train) for job in jobs) == 115_200
    assert peak <= 3 * MB, f"{peak / MB:.2f} MB"


def test_amortized_job_list_allocates_one_copy(amortized):
    jobs, peak = amortized
    assert len(jobs) == 6
    assert sum(len(job.train) for job in jobs) > 12_000
    assert peak <= 2.5 * MB, f"{peak / MB:.2f} MB"


def test_jobs_share_one_pool(exhaustive, amortized):
    for jobs, _ in (exhaustive, amortized):
        assert all(isinstance(job.train, RowView) for job in jobs)
        assert len({id(job.train.pool) for job in jobs}) == 1


@pytest.mark.parametrize("protocol", ["exhaustive", "amortized"])
def test_jobs_ship_to_a_process_pool_as_copies(protocol, request):
    jobs, _ = request.getfixturevalue(protocol)
    for job in jobs:
        copy = replace(job, train=Dataset(job.train.features, job.train.labels))
        assert len(pickle.dumps(replace(job))) <= len(pickle.dumps(copy))
        shipped = pickle.loads(pickle.dumps(job))
        assert type(shipped.train) is Dataset
        assert np.array_equal(shipped.train.features, copy.train.features)
        assert np.array_equal(shipped.train.labels, copy.train.labels)
        assert shipped.fingerprint == copy.fingerprint == job.fingerprint
