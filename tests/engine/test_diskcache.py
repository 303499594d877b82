"""Tests for repro.engine.diskcache: the persistent shared cache.

Covers the contract the in-memory caches cannot offer — results surviving
process restarts, two processes sharing one WAL file without corrupting it
or retraining each other's work, kill -9 crash-safety mid-``put``, and the
degrade-to-a-miss guarantees for corrupted or version-mismatched blobs.
"""

from __future__ import annotations

import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.curves.estimator import CurveEstimationConfig, LearningCurveEstimator
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.diskcache import (
    RESULT_SCHEMA,
    SqliteCurveCache,
    SqliteResultCache,
)
from repro.engine.executor import ProcessPoolExecutor, SerialExecutor
from repro.engine.factories import get_model_factory
from repro.engine.job import TrainingJob, run_training_job
from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig
from repro.utils.exceptions import ConfigurationError

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _job(rng, seed: int = 3) -> TrainingJob:
    dataset = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 2, size=30))
    return TrainingJob(
        train=dataset,
        n_classes=2,
        seed=seed,
        trainer_config=TrainingConfig(epochs=2),
        model_factory=get_model_factory("softmax"),
        factory_name="softmax",
    )


@pytest.fixture
def cache_path(tmp_path) -> str:
    return str(tmp_path / "cache.sqlite")


class TestSqliteResultCache:
    def test_implements_protocol(self, cache_path):
        with SqliteResultCache(cache_path) as cache:
            assert isinstance(cache, ResultCache)

    def test_miss_then_hit(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            assert cache.get(job.fingerprint) is None
            result = run_training_job(job)
            result.fingerprint = job.fingerprint
            cache.put(job.fingerprint, result)
            served = cache.get(job.fingerprint)
            assert served is not None and served.from_cache
            assert len(cache) == 1 and job.fingerprint in cache
            stats = cache.stats
            assert stats.hits == 1 and stats.misses == 1

    def test_hit_survives_restart_byte_identical(self, rng, cache_path):
        job = _job(rng)
        result = run_training_job(job)
        result.fingerprint = job.fingerprint
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, result)
        # A fresh handle is what a restarted process sees.
        with SqliteResultCache(cache_path) as reopened:
            served = reopened.get(job.fingerprint)
        assert served is not None and served.from_cache
        assert pickle.dumps(served.model) == pickle.dumps(result.model)
        assert pickle.dumps(served.training) == pickle.dumps(result.training)

    def test_hit_returns_independent_copy(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
            first = cache.get(job.fingerprint)
            first.model.weights[...] = 0.0
            second = cache.get(job.fingerprint)
            assert not np.allclose(second.model.weights, 0.0)

    def test_corrupted_blob_degrades_to_miss(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
        with sqlite3.connect(cache_path) as conn:
            conn.execute(
                "UPDATE results SET payload = ?", (b"\x80\x04 not a pickle",)
            )
        with SqliteResultCache(cache_path) as cache:
            assert cache.get(job.fingerprint) is None
            # The poisoned row was dropped, so the slot can be refilled.
            assert len(cache) == 0
            result = run_training_job(job)
            cache.put(job.fingerprint, result)
            assert cache.get(job.fingerprint) is not None

    def test_version_mismatch_degrades_to_miss(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
        with sqlite3.connect(cache_path) as conn:
            conn.execute(
                "UPDATE results SET schema = ?", (RESULT_SCHEMA + "-future",)
            )
        with SqliteResultCache(cache_path) as cache:
            assert cache.get(job.fingerprint) is None
            assert len(cache) == 0

    def test_rows_of_the_previous_result_layout_are_misses(self, rng, cache_path):
        # Layout 1 still carried per-epoch train losses in TrainingResult.
        assert RESULT_SCHEMA == "repro.jobresult/2"
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
        with sqlite3.connect(cache_path) as conn:
            conn.execute("UPDATE results SET schema = ?", ("repro.jobresult/1",))
        with SqliteResultCache(cache_path) as cache:
            assert cache.get(job.fingerprint) is None
            assert len(cache) == 0

    def test_wrong_type_payload_degrades_to_miss(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
        with sqlite3.connect(cache_path) as conn:
            conn.execute(
                "UPDATE results SET payload = ?",
                (pickle.dumps({"not": "a JobResult"}),),
            )
        with SqliteResultCache(cache_path) as cache:
            assert cache.get(job.fingerprint) is None

    def test_unpicklable_result_served_front_only(self, rng, cache_path):
        job = _job(rng)
        result = run_training_job(job)
        result.tag = lambda: None  # closures cannot pickle
        with SqliteResultCache(cache_path) as cache:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                cache.put(job.fingerprint, result)
            assert cache.get(job.fingerprint) is not None
            assert len(cache) == 0  # nothing reached the disk tier
        with SqliteResultCache(cache_path) as reopened:
            assert reopened.get(job.fingerprint) is None

    def test_memory_front_lru_eviction_counts(self, rng, cache_path):
        result = run_training_job(_job(rng))
        with SqliteResultCache(cache_path, memory_entries=2) as cache:
            for key in ("a", "b", "c"):
                cache.put(key, result)
            tiers = cache.tier_stats()
            assert tiers["memory"].evictions == 1
            # Evicted from the front only: the disk tier still serves it.
            assert cache.get("a") is not None

    def test_invalid_capacity_rejected(self, cache_path):
        with pytest.raises(ConfigurationError):
            SqliteResultCache(cache_path, memory_entries=0)

    def test_stats_aggregate_across_handles(self, rng, cache_path):
        """Counters live in the file: every process's lookups are visible."""
        job = _job(rng)
        first = SqliteResultCache(cache_path)
        first.put(job.fingerprint, run_training_job(job))
        second = SqliteResultCache(cache_path)
        assert second.get(job.fingerprint) is not None  # disk hit
        second.close()
        first.close()
        with SqliteResultCache(cache_path) as observer:
            tiers = observer.tier_stats()
        assert tiers["results"].hits == 1
        assert tiers["results"].misses == 0  # put() was never a counted miss

    def test_gc_evicts_lru_first(self, rng, cache_path):
        result = run_training_job(_job(rng))
        with SqliteResultCache(cache_path) as cache:
            import time

            cache.put("old", result)
            time.sleep(0.02)  # distinct last_access timestamps
            cache.put("new", result)
            entry_bytes = cache.entry_stats()["results"]["size_bytes"] // 2
            report = cache.gc(max_mb=(entry_bytes + 8) / (1024 * 1024))
            assert report["removed_results"] == 1
            assert "old" not in cache._front
            assert cache.get("new") is not None
            assert cache.get("old", count_miss=False) is None
            assert cache.tier_stats()["results"].evictions == 1

    def test_clear_keeps_counters_clear_all_resets(self, rng, cache_path):
        job = _job(rng)
        with SqliteResultCache(cache_path) as cache:
            cache.put(job.fingerprint, run_training_job(job))
            cache.get(job.fingerprint)
            cache.clear()
            assert len(cache) == 0
            assert cache.stats.hits == 1  # mirror of InMemoryResultCache.clear
            removed = cache.clear_all()
            assert removed["removed_results"] == 0  # already cleared
            assert cache.stats == CacheStats()


class TestExecutorsShareTheFile:
    def test_serial_and_pool_results_byte_identical_and_warm(
        self, tiny_sliced, fast_training, fast_curves, cache_path
    ):
        """The acceptance property at engine level: cold serial, then a
        warm pool run through a fresh handle trains nothing and matches
        byte for byte."""
        cold_cache = SqliteResultCache(cache_path)
        cold = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=cold_cache),
        )
        cold_curves = cold.estimate(tiny_sliced)
        assert cold.trainings_performed > 0
        cold_cache.close()

        warm_cache = SqliteResultCache(cache_path)
        with ProcessPoolExecutor(max_workers=2, cache=warm_cache) as executor:
            warm = LearningCurveEstimator(
                trainer_config=fast_training,
                config=fast_curves,
                random_state=0,
                executor=executor,
            )
            warm_curves = warm.estimate(tiny_sliced)
        assert warm.trainings_performed == 0
        assert pickle.dumps(warm_curves) == pickle.dumps(cold_curves)
        warm_cache.close()

    def test_pool_workers_persist_fresh_results(
        self, tiny_sliced, fast_training, fast_curves, cache_path
    ):
        """A *cold* pool run must leave the disk tier as full as a serial
        one would: workers write their own results through the WAL file."""
        cache = SqliteResultCache(cache_path)
        with ProcessPoolExecutor(max_workers=2, cache=cache) as executor:
            estimator = LearningCurveEstimator(
                trainer_config=fast_training,
                config=fast_curves,
                random_state=0,
                executor=executor,
            )
            estimator.estimate(tiny_sliced)
            trained = estimator.trainings_performed
        assert trained > 0
        assert len(cache) == trained
        cache.close()


class TestCurvePersistence:
    def test_curves_survive_restart(
        self, tiny_sliced, fast_training, fast_curves, cache_path
    ):
        backend = SqliteResultCache(cache_path)
        first = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=backend),
            incremental=True,
            curve_store=backend,
        )
        curves = first.estimate(tiny_sliced)
        assert isinstance(first.curve_cache, SqliteCurveCache)
        backend.close()

        # A fresh process: same seed and protocol, empty memory, same file.
        reopened = SqliteResultCache(cache_path)
        second = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=reopened),
            incremental=True,
            curve_store=reopened,
        )
        assert second.curve_cache.stale_slices(tiny_sliced) == []
        hydrated = second.curve_cache.cached_curves(tiny_sliced.names)
        assert hydrated.keys() == curves.keys()
        # Per-curve comparison: the dict-level pickle is not canonical (the
        # fresh fits share array objects, the hydrated ones do not).
        for name in curves:
            assert pickle.dumps(hydrated[name]) == pickle.dumps(curves[name])
        reopened.close()

    def test_different_context_does_not_share_curves(
        self, tiny_sliced, fast_training, fast_curves, cache_path
    ):
        backend = SqliteResultCache(cache_path)
        first = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=backend),
            incremental=True,
            curve_store=backend,
        )
        first.estimate(tiny_sliced)
        other_seed = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=1,  # different root seed => different context
            executor=SerialExecutor(cache=backend),
            incremental=True,
            curve_store=backend,
        )
        assert other_seed.curve_cache.stale_slices(tiny_sliced) == list(
            tiny_sliced.names
        )
        backend.close()

    def test_corrupted_curve_degrades_to_miss(
        self, tiny_sliced, fast_training, fast_curves, cache_path
    ):
        backend = SqliteResultCache(cache_path)
        estimator = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=backend),
            incremental=True,
            curve_store=backend,
        )
        estimator.estimate(tiny_sliced)
        backend.close()
        with sqlite3.connect(cache_path) as conn:
            conn.execute("UPDATE curves SET payload = ?", (b"garbage",))
        reopened = SqliteResultCache(cache_path)
        fresh = LearningCurveEstimator(
            trainer_config=fast_training,
            config=fast_curves,
            random_state=0,
            executor=SerialExecutor(cache=reopened),
            incremental=True,
            curve_store=reopened,
        )
        # Every curve is a miss again — but estimation still succeeds, and
        # the result cache still serves the underlying trainings.
        assert fresh.curve_cache.stale_slices(tiny_sliced) == list(
            tiny_sliced.names
        )
        fresh.estimate(tiny_sliced)
        assert fresh.trainings_performed == 0
        reopened.close()

    @pytest.mark.parametrize("strategy", ["amortized", "exhaustive"])
    def test_multi_iteration_run_replays_across_restart(
        self, tiny_task, fast_training, cache_path, strategy
    ):
        """Regression: curves are keyed by the *full* dataset state.

        A slice's fitted curve depends on every pool (one amortized wave
        trains on fractions of all slices), so a mid-run refit must not
        overwrite the curve a restarted run needs for an earlier state —
        keying by the slice's own pool fingerprint did exactly that, and a
        warm multi-iteration tuner run diverged from the cold one at the
        first post-acquisition refit.
        """
        from dataclasses import replace

        from repro.acquisition.source import GeneratorDataSource
        from repro.core.tuner import SliceTuner, SliceTunerConfig

        def run():
            with SqliteResultCache(cache_path) as cache:
                tuner = SliceTuner(
                    tiny_task.initial_sliced_dataset(40, 60, random_state=0),
                    GeneratorDataSource(tiny_task, random_state=7),
                    trainer_config=fast_training,
                    curve_config=replace(CURVES, strategy=strategy),
                    config=SliceTunerConfig(incremental_curves=True),
                    random_state=0,
                    result_cache=cache,
                )
                result = tuner.run(budget=60, method="moderate", evaluate=False)
                return result.to_json(), tuner.estimator.trainings_performed

        CURVES = CurveEstimationConfig(n_points=3, n_repeats=1, min_fraction=0.3)
        cold_json, cold_trainings = run()
        warm_json, warm_trainings = run()
        assert cold_trainings > 0 and warm_trainings == 0
        assert warm_json == cold_json


_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.engine.diskcache import SqliteResultCache
    from repro.engine.job import TrainingJob, run_training_job
    from repro.engine.factories import get_model_factory
    from repro.ml.data import Dataset
    from repro.ml.train import TrainingConfig

    path = sys.argv[1]
    cache = SqliteResultCache(path)
    rng = np.random.default_rng(0)
    for index in range(10_000):  # killed from outside long before the end
        dataset = Dataset(
            rng.normal(size=(12, 3)), rng.integers(0, 2, size=12)
        )
        job = TrainingJob(
            train=dataset, n_classes=2, seed=index,
            trainer_config=TrainingConfig(epochs=1),
            model_factory=get_model_factory("softmax"),
            factory_name="softmax",
        )
        result = run_training_job(job)
        result.fingerprint = job.fingerprint
        cache.put(job.fingerprint, result)
        print(index, flush=True)
    """
)

_HAMMER_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import numpy as np
    from repro.engine.diskcache import SqliteResultCache, run_training_jobs_shared
    from repro.engine.job import TrainingJob
    from repro.engine.factories import get_model_factory
    from repro.ml.data import Dataset
    from repro.ml.train import TrainingConfig

    path, start, stop, total = (
        sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    )
    rng = np.random.default_rng(7)  # both processes build identical job specs
    jobs = []
    for index in range(total):
        dataset = Dataset(
            rng.normal(size=(12, 3)), rng.integers(0, 2, size=12)
        )
        jobs.append(TrainingJob(
            train=dataset, n_classes=2, seed=index,
            trainer_config=TrainingConfig(epochs=1),
            model_factory=get_model_factory("softmax"),
            factory_name="softmax",
        ))

    # Pass 1: hammer our share of the jobs into the common file.
    trained = 0
    for job in jobs[start:stop]:
        if not run_training_jobs_shared(path, [job])[0].from_cache:
            trained += 1

    # Barrier: wait until every job (ours and the peer's) is committed.
    cache = SqliteResultCache(path)
    deadline = time.time() + 60
    while len(cache) < total:
        if time.time() > deadline:
            print("TIMEOUT", flush=True)
            sys.exit(3)
        time.sleep(0.01)

    # Pass 2: the whole set again — every job must now be a cross-process
    # hit; a single retraining means the shared file lied.
    retrained = sum(
        0 if run_training_jobs_shared(path, [job])[0].from_cache else 1
        for job in jobs
    )
    print(f"trained={trained} retrained={retrained}", flush=True)
    sys.exit(0 if retrained == 0 else 4)
    """
)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCrashAndConcurrency:
    def test_kill9_mid_put_leaves_readable_cache(self, rng, cache_path):
        """SIGKILL during the write loop: WAL guarantees every committed
        entry stays readable and the file passes an integrity check."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, cache_path],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        # Kill mid-stream, after at least a few committed puts.
        for _ in range(5):
            proc.stdout.readline()
        proc.kill()
        proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        with sqlite3.connect(cache_path) as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        with SqliteResultCache(cache_path) as cache:
            assert len(cache) >= 5
            with sqlite3.connect(cache_path) as conn:
                fingerprints = [
                    row[0]
                    for row in conn.execute("SELECT fingerprint FROM results")
                ]
            for fingerprint in fingerprints:
                assert cache.get(fingerprint) is not None

    def test_two_processes_hammer_without_corruption_or_retraining(
        self, cache_path
    ):
        """Two concurrent writers on one WAL file: disjoint halves first,
        then each re-runs the full set and must get 20/20 cache hits."""
        total = 20
        env = _subprocess_env()
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _HAMMER_SCRIPT, cache_path,
                    str(start), str(stop), str(total),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for start, stop in ((0, total // 2), (total // 2, total))
        ]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, (proc.returncode, out, err)
            assert "retrained=0" in out

        with sqlite3.connect(cache_path) as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
            count = conn.execute("SELECT count(*) FROM results").fetchone()[0]
        assert count == total  # keyed by content: no duplicate entries
        with SqliteResultCache(cache_path) as cache:
            with sqlite3.connect(cache_path) as conn:
                fingerprints = [
                    row[0]
                    for row in conn.execute("SELECT fingerprint FROM results")
                ]
            for fingerprint in fingerprints:
                assert cache.get(fingerprint) is not None
