"""The parallel training execution engine.

Every model training in the reproduction — the hundreds behind
learning-curve estimation, the evaluation trials, the experiment grids — is
describable as a :class:`~repro.engine.job.TrainingJob`: a dataset, a model
factory, a trainer configuration, and a pre-spawned seed.  This package turns
that observation into infrastructure:

* :mod:`repro.engine.job` — the declarative job spec with content-addressed
  fingerprints, and the worker function that trains a batch of jobs in
  lock-step groups.
* :mod:`repro.engine.cache` — a :class:`~repro.engine.cache.ResultCache`
  keyed on job fingerprints so a training with the same data, configuration,
  and seed is never re-run, plus the :class:`~repro.engine.cache.CurveCache`
  powering incremental curve re-estimation.
* :mod:`repro.engine.diskcache` — the persistent tier:
  :class:`~repro.engine.diskcache.SqliteResultCache` (WAL-mode SQLite behind
  a small in-process LRU front) shares content-addressed results across
  processes and restarts, and
  :class:`~repro.engine.diskcache.SqliteCurveCache` does the same for
  fitted curves.
* :mod:`repro.engine.executor` — the :class:`~repro.engine.executor.Executor`
  protocol with :class:`~repro.engine.executor.SerialExecutor` and
  :class:`~repro.engine.executor.ProcessPoolExecutor` backends.  Seeds are
  spawned up-front from the parent RNG, so the two backends produce
  byte-identical results and parallelism is purely a deployment choice.
* :mod:`repro.engine.factories` — a registry of named, picklable model
  factories so jobs can cross process boundaries and be fingerprinted by a
  stable name.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CacheStats": ".cache",
    "CurveCache": ".cache",
    "Executor": ".executor",
    "InMemoryResultCache": ".cache",
    "JobResult": ".job",
    "MLPFactory": ".factories",
    "ProcessPoolExecutor": ".executor",
    "ResultCache": ".cache",
    "SerialExecutor": ".executor",
    "SqliteCurveCache": ".diskcache",
    "SqliteResultCache": ".diskcache",
    "TrainingJob": ".job",
    "available_executors": ".executor",
    "default_cache_path": ".diskcache",
    "available_model_factories": ".factories",
    "describe_factory": ".factories",
    "fingerprint_dataset": ".job",
    "get_executor": ".executor",
    "get_model_factory": ".factories",
    "register_model_factory": ".factories",
    "run_training_job": ".job",
    "stable_seed": ".job",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
