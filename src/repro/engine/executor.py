"""Executor backends: where (and whether) training jobs run in parallel.

An :class:`Executor` takes a batch of :class:`~repro.engine.job.TrainingJob`
specs and returns their :class:`~repro.engine.job.JobResult`\\ s **in
submission order**.  Because every job carries its own pre-spawned seed, the
backend is purely a deployment choice: :class:`SerialExecutor` (in-process)
and :class:`ProcessPoolExecutor` (one worker process per core) produce
byte-identical results for the same jobs.

Both backends optionally wrap a :class:`~repro.engine.cache.ResultCache`;
cached jobs are served without running, and only the misses are dispatched.
Executors also expose :meth:`Executor.map` — a generic ordered map used by
the experiment runner to fan a scenario/method/trial grid out across
workers.

**Lock-step training.**  The misses of one submit are planned by
:func:`~repro.engine.job.plan_training_jobs`: jobs whose models share class
and hyperparameters (softmax or MLP), with one
:class:`~repro.ml.train.TrainingConfig` and one feature width form a group,
and each group trains as one stacked model
(:func:`~repro.ml.train.fit_lockstep`, the only training loop; a lone job
is a group of one).  Every weight comes out bitwise equal to the job's own
training, so grouping is only a schedule.  :class:`SerialExecutor` trains
each group of two or more under an ``engine.train`` span;
:class:`ProcessPoolExecutor` ships each group as at most ``max_workers``
row-balanced chunks, and a traced worker trains each chunk under one
``engine.train`` span next to per-job ``engine.job`` marker spans.  The
``engine.submit`` span records ``groups`` and ``stacked`` (groups of two or
more, and the jobs in them), and the ``engine.stacked_jobs`` counter sums
the latter.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.engine.cache import ResultCache
from repro.engine.job import (
    JobResult,
    TrainingJob,
    TrainingPlan,
    plan_training_jobs,
    run_training_jobs,
    scheduled_steps,
)
from repro.telemetry import (
    CollectSink,
    MetricsRegistry,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry

T = TypeVar("T")
R = TypeVar("R")


class Executor:
    """Base class: cache bookkeeping plus an ordered-execution contract.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`.  Hits skip
        execution entirely (``JobResult.from_cache`` is True for them);
        misses are executed by the backend and stored.
    """

    name: str = "base"

    def __init__(self, cache: ResultCache | None = None) -> None:
        self.cache = cache

    # -- the contract ------------------------------------------------------------
    def submit(self, jobs: Sequence[TrainingJob]) -> list[JobResult]:
        """Run ``jobs`` (serving cache hits), results in submission order."""
        jobs = list(jobs)
        registry = get_registry()
        registry.counter("engine.jobs").inc(len(jobs))
        with get_tracer().span(
            "engine.submit",
            attributes={"executor": self.name, "jobs": len(jobs)},
        ) as span:
            results: list[JobResult | None] = [None] * len(jobs)
            pending: list[tuple[int, TrainingJob]] = []
            if self.cache is None:
                pending = list(enumerate(jobs))
            else:
                for index, job in enumerate(jobs):
                    hit = self.cache.get(job.fingerprint)
                    if hit is not None:
                        hit.tag = job.tag
                        results[index] = hit
                    else:
                        pending.append((index, job))
            plan = plan_training_jobs([job for _, job in pending])
            stacked = sum(len(group) for group in plan.lockstep)
            registry.counter("engine.stacked_jobs").inc(stacked)
            span.set_attribute("groups", len(plan.lockstep))
            span.set_attribute("stacked", stacked)
            if pending:
                executed = self._run_jobs([job for _, job in pending], plan)
                for (index, job), result in zip(pending, executed, strict=True):
                    results[index] = result
                    if self.cache is not None:
                        # Job fingerprints hash the full training set, so they
                        # are only materialized on cached runs.
                        result.fingerprint = job.fingerprint
                        if not result.from_cache:
                            # A shared-cache worker may have served this "miss"
                            # from another process's training; re-storing would
                            # only rewrite an identical entry.
                            self.cache.put(job.fingerprint, result)
            hits = len(jobs) - len(pending)
            registry.counter("engine.cache_hits").inc(hits)
            registry.counter("engine.cache_misses").inc(len(pending))
            span.set_attribute("cache_hits", hits)
            span.set_attribute("executed", len(pending))
        if any(result is None for result in results):
            raise RuntimeError("executor backend dropped a job result")
        return results

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving order (generic fan-out)."""
        raise NotImplementedError

    def _run_jobs(
        self, jobs: Sequence[TrainingJob], plan: TrainingPlan
    ) -> list[JobResult]:
        """Execute cache-missed jobs as ``plan`` groups them; keep order."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (a no-op for in-process backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class _ShippedJobs:
    """A worker's results for one chunk plus the telemetry it produced."""

    results: list[JobResult]
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


@dataclass
class _TracedWorkerRunner:
    """Picklable wrapper running one chunk of jobs under a worker-local tracer.

    The worker installs a fresh metrics registry around the chunk and
    collects its spans on a fresh tracer, so the shipped payload contains
    exactly this chunk's spans and metric deltas — pool processes are
    reused across chunks, and a process-wide registry would double-count.
    The chunk trains under one ``engine.train`` span (``jobs``, ``steps``)
    opened here; the runner itself runs untraced, so the span it opens for
    a lock-step group is not a second copy.  Each job then gets an
    ``engine.job`` marker span carrying its index, tag and ``from_cache``:
    the chunk's jobs train together, so the training time is on the
    ``engine.train`` span, not split across jobs.  Span ids derive from the
    parent ``engine.submit`` span and submission indices (a chunk's first
    job for ``engine.train``), never from which worker ran the chunk.
    """

    runner: Callable[[list[TrainingJob]], list[JobResult]]
    parent_id: str
    baggage: dict

    def __call__(self, chunk: list[tuple[int, TrainingJob]]) -> _ShippedJobs:
        jobs = [job for _, job in chunk]
        collector = CollectSink()
        tracer = Tracer(sinks=[collector])
        registry = MetricsRegistry()
        previous_tracer = set_tracer(None)
        previous_registry = set_registry(registry)
        try:
            with tracer.span(
                "engine.train",
                parent=self.parent_id,
                sequence=chunk[0][0],
                attributes={"jobs": len(jobs), "steps": scheduled_steps(jobs)},
                baggage=self.baggage,
            ):
                results = self.runner(jobs)
            for (index, job), result in zip(chunk, results):
                with tracer.span(
                    "engine.job",
                    parent=self.parent_id,
                    sequence=index,
                    attributes={
                        "index": index,
                        "tag": repr(job.tag),
                        "from_cache": bool(result.from_cache),
                    },
                    baggage=self.baggage,
                ):
                    pass
        finally:
            set_tracer(previous_tracer)
            set_registry(previous_registry)
        return _ShippedJobs(
            results=results,
            spans=[span.to_dict() for span in collector.spans()],
            metrics=registry.snapshot(),
        )


def _chunks(group: list[int], jobs: Sequence[TrainingJob], parts: int) -> list[list[int]]:
    """Split a group into at most ``parts`` chunks of about equal rows."""
    chunks: list[list[int]] = [[] for _ in range(min(parts, len(group)))]
    rows = [0] * len(chunks)
    for index in sorted(group, key=lambda index: -len(jobs[index].train)):
        lightest = rows.index(min(rows))
        chunks[lightest].append(index)
        rows[lightest] += len(jobs[index].train)
    return [sorted(chunk) for chunk in chunks]


class SerialExecutor(Executor):
    """Run every job in the calling process, one after another."""

    name = "serial"

    def _run_jobs(
        self, jobs: Sequence[TrainingJob], plan: TrainingPlan
    ) -> list[JobResult]:
        return run_training_jobs(jobs, plan)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ProcessPoolExecutor(Executor):
    """Fan jobs out across worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to the CPU count.
    cache:
        Optional result cache (lives in the parent process; workers only see
        cache misses).
    chunksize:
        Tasks shipped per worker message; 1 keeps scheduling responsive for
        the heterogeneous job sizes the estimator produces.  A task is one
        chunk of a lock-step group (a group splits into at most
        ``max_workers`` chunks of about equal rows).

    Jobs and their results must be picklable.  A closure model factory (the
    one realistic offender) degrades gracefully: the batch runs serially in
    the parent, with a warning, so correctness never depends on the
    backend.  Only the factories are
    probed — datasets, configs, and seeds always pickle, and probing whole
    jobs would serialize every training set twice.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        chunksize: int = 1,
    ) -> None:
        super().__init__(cache=cache)
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive or None, got {max_workers}"
            )
        if chunksize <= 0:
            raise ConfigurationError(f"chunksize must be positive, got {chunksize}")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunksize = chunksize
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers
            )
        return self._pool

    @staticmethod
    def _picklable(payload: object) -> bool:
        try:
            pickle.dumps(payload)
        except Exception:
            return False
        return True

    def _run_jobs(
        self, jobs: Sequence[TrainingJob], plan: TrainingPlan
    ) -> list[JobResult]:
        if not jobs:
            return []
        factories = {id(job.model_factory): job.model_factory for job in jobs}
        if not all(self._picklable(factory) for factory in factories.values()):
            warnings.warn(
                "a job's model factory is not picklable (closure?); "
                "falling back to serial execution for this batch",
                RuntimeWarning,
                stacklevel=3,
            )
            return run_training_jobs(jobs, plan)
        tasks = [
            chunk
            for group in plan.groups
            for chunk in _chunks(group, jobs, self.max_workers)
        ]
        pool = self._ensure_pool()
        # A process-shared cache (SqliteResultCache) supplies a picklable
        # runner that re-checks and feeds the shared file from inside each
        # worker, so results land on disk the moment their chunk finishes
        # and no cross-process result is ever retrained.
        runner: Callable[[list[TrainingJob]], list[JobResult]] = run_training_jobs
        worker_factory = getattr(self.cache, "worker_runner", None)
        if worker_factory is not None:
            runner = worker_factory()
        tracer = get_tracer()
        shipped_results: Iterable[Any]
        if not tracer.enabled:
            shipped_results = pool.map(
                runner,
                [[jobs[i] for i in task] for task in tasks],
                chunksize=self.chunksize,
            )
        else:
            # Tracing is on: wrap the runner so each worker runs its chunk
            # under spans on a chunk-local tracer/registry and ships both
            # back with the results.  Parent linkage and sequences are
            # pre-assigned here, so worker span ids are deterministic
            # regardless of which worker picks which chunk up.
            parent = tracer.current_span()
            traced_runner = _TracedWorkerRunner(
                runner=runner,
                parent_id=parent.span_id if parent is not None else "",
                baggage=dict(parent.baggage) if parent is not None else {},
            )
            shipped_results = pool.map(
                traced_runner,
                [[(i, jobs[i]) for i in task] for task in tasks],
                chunksize=self.chunksize,
            )
        registry = get_registry()
        results: list[JobResult | None] = [None] * len(jobs)
        for task, shipped in zip(tasks, shipped_results):
            if isinstance(shipped, _ShippedJobs):
                for span_dict in shipped.spans:
                    tracer.emit(Span.from_dict(span_dict))
                registry.merge(shipped.metrics)
                shipped = shipped.results
            for i, result in zip(task, shipped):
                results[i] = result
        return results  # type: ignore[return-value]

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        if not self._picklable(fn) or not all(
            self._picklable(item) for item in items
        ):
            warnings.warn(
                "task is not picklable; falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        return list(pool.map(fn, items, chunksize=self.chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: The executor backends, by name.
EXECUTORS: Registry[Callable[..., Executor]] = Registry("executor")
EXECUTORS.add("serial", SerialExecutor)
EXECUTORS.add("process", ProcessPoolExecutor, aliases=("process_pool",))

available_executors = EXECUTORS.names
#: ``get_executor(name, **kwargs)`` builds the backend registered under ``name``.
get_executor = EXECUTORS.build
