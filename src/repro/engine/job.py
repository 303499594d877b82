"""The declarative training-job spec and its content-addressed fingerprint.

A :class:`TrainingJob` captures everything one model training depends on —
the training data, the model factory, the trainer configuration, and a seed
spawned up-front by the caller.  Two consequences:

* **Determinism** — executing a job is a pure function of the spec, so any
  executor backend (in-process or a process pool, in any order) produces the
  same trained model for the same job.
* **Content addressing** — :attr:`TrainingJob.fingerprint` hashes the data,
  configuration, factory name, and seed, so a
  :class:`~repro.engine.cache.ResultCache` can recognise a repeated training
  and skip it entirely.

:func:`run_training_jobs` executes a batch: jobs that share a lock-step key
(:func:`plan_training_jobs`) train together in one
:func:`~repro.ml.train.fit_lockstep` loop, and a job that shares it with no
other trains as a group of one.  Each job's result is bitwise the same
however the batch is grouped.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Hashable, Sequence

from repro.engine.factories import ModelFactory
from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig, TrainingResult, fit_lockstep
from repro.telemetry import get_tracer


def fingerprint_dataset(dataset: Dataset) -> str:
    """Content hash of a dataset (features, labels, shapes, and dtypes).

    Dtypes and per-array separators are hashed even though :class:`Dataset`
    currently coerces to float64/int64 — the cache key must never rely on a
    container invariant it cannot see.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{dataset.features.shape}:{dataset.features.dtype}\x1f".encode()
    )
    digest.update(dataset.features.tobytes())
    digest.update(f"\x1f{dataset.labels.shape}:{dataset.labels.dtype}\x1f".encode())
    digest.update(dataset.labels.tobytes())
    return digest.hexdigest()


def stable_seed(*parts: Any) -> int:
    """Derive a deterministic 63-bit seed from arbitrary hashable parts.

    Unlike ``hash()``, the result is stable across processes and Python
    invocations, which is what lets repeated estimations on identical data
    rebuild identical job specs (and therefore hit the result cache).
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


#: Early-stopping fields :class:`TrainingConfig` no longer has, hashed at
#: the defaults they always had, so job fingerprints and the disk-cache rows
#: keyed by them keep their bytes.
_RETIRED_CONFIG_FIELDS = [
    ("early_stopping_patience", 0),
    ("validation_fraction", 0.0),
    ("restore_best", False),
]


def _fingerprint_config(config: TrainingConfig) -> str:
    pairs = [(f.name, getattr(config, f.name)) for f in fields(config)]
    return repr(sorted(pairs + _RETIRED_CONFIG_FIELDS))


@dataclass(frozen=True, eq=False)
class TrainingJob:
    """One from-scratch model training, fully specified up-front.

    Attributes
    ----------
    train:
        The training data.
    n_classes:
        Number of classes the model must discriminate.
    seed:
        Seed for the training loop's batch shuffling.  Spawn it from the
        parent RNG *before* submitting, so serial and parallel executors see
        identical seeds.
    trainer_config:
        Hyperparameters of the training run.
    model_factory:
        Callable ``n_classes -> model``.  Must be picklable (a module-level
        function, a registered factory, or a dataclass instance) to cross a
        process-pool boundary; any callable works with the serial executor.
    factory_name:
        Stable identifier of the factory used for fingerprinting; defaults
        to a name derived from the callable (see
        :func:`repro.engine.factories.describe_factory`).
    tag:
        Caller-side correlation data (e.g. ``(repeat, fraction)``); carried
        through to the result, never fingerprinted.
    """

    train: Dataset
    n_classes: int
    seed: int
    trainer_config: TrainingConfig = field(default_factory=TrainingConfig)
    model_factory: ModelFactory | None = None
    factory_name: str = ""
    tag: Any = None

    @cached_property
    def fingerprint(self) -> str:
        """Content hash identifying this job for the result cache."""
        from repro.engine.factories import describe_factory

        factory_name = self.factory_name or describe_factory(self.model_factory)
        digest = hashlib.sha256()
        digest.update(fingerprint_dataset(self.train).encode())
        digest.update(
            "\x1f".join(
                (
                    str(self.n_classes),
                    str(self.seed),
                    _fingerprint_config(self.trainer_config),
                    factory_name,
                )
            ).encode()
        )
        return digest.hexdigest()


@dataclass
class JobResult:
    """Outcome of one executed (or cache-served) training job.

    Attributes
    ----------
    fingerprint:
        The job's content hash (cache key).  Filled in by the executor only
        when a cache is attached — computing it hashes the full training
        set, which would be pure overhead on cache-less runs.
    model:
        The trained model.  Cached results hand out fresh copies, but treat
        the model as read-only all the same.
    training:
        The :class:`~repro.ml.train.TrainingResult` of the run.
    tag:
        The submitting job's correlation tag.
    from_cache:
        True when the result was served by a
        :class:`~repro.engine.cache.ResultCache` instead of a fresh training
        — callers use this to keep training counters honest.
    """

    model: object
    training: TrainingResult
    fingerprint: str = ""
    tag: Any = None
    from_cache: bool = False


def _build_model(job: TrainingJob) -> Any:
    """A fresh, untrained model from the job's factory."""
    if job.model_factory is None:
        from repro.engine.factories import get_model_factory

        factory: ModelFactory = get_model_factory(job.factory_name)
    else:
        factory = job.model_factory
    return factory(job.n_classes)


def run_training_job(job: TrainingJob) -> JobResult:
    """Execute one job: build a fresh model, train it, package the result."""
    return run_training_jobs([job])[0]


def _lockstep_key(job: TrainingJob, model: Any) -> Hashable:
    """What jobs must share to train in one lock-step loop.

    The model's class and hyperparameters (``n_classes``, ``l2`` and, for
    an MLP, ``hidden_sizes``), one :class:`~repro.ml.train.TrainingConfig`
    and one feature width.
    """
    hyperparameters = (model.n_classes, model.l2, getattr(model, "hidden_sizes", ()))
    return (type(model), hyperparameters, job.trainer_config, job.train.n_features)


@dataclass
class TrainingPlan:
    """How a batch of jobs trains (see :func:`plan_training_jobs`).

    Attributes
    ----------
    models:
        One fresh model per job, built by the job's factory.
    groups:
        A partition of the job indices in order of each list's first job.
        Each list trains in one lock-step loop; a singleton is a group of
        one.
    """

    models: list[Any]
    groups: list[list[int]]

    @property
    def lockstep(self) -> list[list[int]]:
        """The groups of two or more jobs."""
        return [group for group in self.groups if len(group) > 1]


def plan_training_jobs(jobs: Sequence[TrainingJob]) -> TrainingPlan:
    """Build each job's model once and group the jobs by lock-step key."""
    models = [_build_model(job) for job in jobs]
    by_key: dict[Hashable, list[int]] = {}
    groups: list[list[int]] = []
    for index, (job, model) in enumerate(zip(jobs, models)):
        key = _lockstep_key(job, model)
        if key in by_key:
            by_key[key].append(index)
        else:
            by_key[key] = [index]
            groups.append(by_key[key])
    return TrainingPlan(models=models, groups=groups)


def scheduled_steps(jobs: Sequence[TrainingJob]) -> int:
    """Optimizer steps a group of same-config jobs schedules in lock-step.

    Per epoch: the largest model's full batches, which every model still
    stepping takes together, plus one ragged sub-step per model whose size
    is not a batch multiple.  For one job that is its own step count.
    """
    config = jobs[0].trainer_config
    sizes = [len(job.train) for job in jobs]
    return config.epochs * (
        max(sizes) // config.batch_size
        + sum(1 for size in sizes if size % config.batch_size)
    )


def run_training_jobs(
    jobs: Sequence[TrainingJob], plan: TrainingPlan | None = None
) -> list[JobResult]:
    """Execute a batch of jobs, results in submission order.

    Each group of ``plan`` (default :func:`plan_training_jobs`) trains in
    one :func:`~repro.ml.train.fit_lockstep` loop, a group of two or more
    under an ``engine.train`` span.  Module-level so process-pool workers
    can import it.
    """
    jobs = list(jobs)
    plan = plan_training_jobs(jobs) if plan is None else plan
    results: list[JobResult | None] = [None] * len(jobs)
    for group in plan.groups:
        members = [jobs[index] for index in group]
        models = [plan.models[index] for index in group]
        span = (
            get_tracer().span(
                "engine.train",
                attributes={"jobs": len(group), "steps": scheduled_steps(members)},
            )
            if len(group) > 1
            else contextlib.nullcontext()
        )
        with span:
            trainings = fit_lockstep(
                models,
                [job.train for job in members],
                [job.seed for job in members],
                members[0].trainer_config,
            )
        for index, job, model, training in zip(group, members, models, trainings):
            results[index] = JobResult(model=model, training=training, tag=job.tag)
    return results  # type: ignore[return-value]
