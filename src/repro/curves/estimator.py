"""The Learning Curve Estimator (Sections 4.1 and 4.2 of the paper).

For each slice the estimator measures the model's validation loss at several
training-set sizes and fits a power law to the measurements.  Two protocols
are implemented:

* **exhaustive** — for each slice and each subset size, train a model on
  (subset of that slice) + (all other slices in full) and evaluate on that
  slice's validation set.  This needs ``|S| * K`` trainings per repeat.
* **amortized** (the paper's "efficient implementation") — for each subset
  fraction, take that fraction of *every* slice, train a single model, and
  evaluate it on every slice's validation set, producing one data point per
  slice from one training.  This needs only ``K`` trainings per repeat and is
  the default.

Reliability is improved by repeating the whole procedure ``n_repeats`` times
with different random subsets and averaging the fitted curves, and by
weighting measurement points by their subset sizes during fitting.

Both protocols are *declarative*: they build a batch of
:class:`~repro.engine.job.TrainingJob` specs — subsets sampled and per-job
seeds spawned up-front from a content-derived RNG — and submit the whole
wave to an :class:`~repro.engine.executor.Executor`.  Consequences:

* serial and process-pool executors produce byte-identical curves,
* repeating an estimation on unchanged data rebuilds identical job
  fingerprints, so a warm :class:`~repro.engine.cache.ResultCache` serves
  every training from cache (zero new trainings), and
* with ``incremental=True`` the estimator keeps a
  :class:`~repro.engine.cache.CurveCache` and only re-measures slices whose
  training pools changed since the previous estimate.

A job's training data is a :class:`~repro.ml.data.RowView`: one shared
combined copy of the slice pools (built once per data version, and the same
copy :meth:`SliceTuner.evaluate <repro.core.tuner.SliceTuner.evaluate>`
trains on) plus the job's int64 row index, from
:meth:`~repro.slices.sliced_dataset.SlicedDataset.subset_train`.  A wave of
``K`` amortized or ``|S| * K`` exhaustive jobs therefore holds one copy of
the data, not one per job; the training loops gather each batch straight
from the shared copy, and fingerprints hash the same bytes as a copy would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.curves.power_law import FittedCurve
from repro.curves.reliability import average_curves, fit_averaged_curve
from repro.curves.fitting import fit_power_law, weighted_log_rmse
from repro.engine.cache import CurveCache
from repro.engine.cache import pool_fingerprints as slice_pool_fingerprints
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.factories import ModelFactory, describe_factory
from repro.engine.job import (
    JobResult,
    TrainingJob,
    _fingerprint_config,
    stable_seed,
)
from repro.ml.linear import SoftmaxRegression
from repro.ml.metrics import log_loss
from repro.ml.train import TrainingConfig
from repro.slices.sliced_dataset import SlicedDataset
from repro.utils.exceptions import ConfigurationError, FittingError
from repro.utils.rng import RandomState, as_generator, spawn_seeds
from repro.utils.validation import check_positive_int

_SEED_BOUND = 2**63 - 1


@dataclass(frozen=True)
class CurvePoint:
    """One measured learning-curve point for one slice."""

    slice_name: str
    size: int
    loss: float
    repeat: int


@dataclass(frozen=True)
class CurveEstimationConfig:
    """Configuration of the learning-curve estimation.

    Attributes
    ----------
    n_points:
        Number of subset sizes measured per repeat (the paper's ``K``,
        typically 10).
    min_fraction / max_fraction:
        Range of subset fractions of the current slice sizes to measure.
    n_repeats:
        How many times the measurement is repeated with fresh random subsets;
        the resulting curves are averaged (the paper uses 5).
    strategy:
        ``"amortized"`` (efficient, Section 4.2) or ``"exhaustive"``.
    """

    n_points: int = 8
    min_fraction: float = 0.2
    max_fraction: float = 1.0
    n_repeats: int = 2
    strategy: str = "amortized"

    def __post_init__(self) -> None:
        check_positive_int(self.n_points, "n_points")
        check_positive_int(self.n_repeats, "n_repeats")
        if not 0 < self.min_fraction <= self.max_fraction <= 1.0:
            raise ConfigurationError(
                "fractions must satisfy 0 < min_fraction <= max_fraction <= 1, "
                f"got ({self.min_fraction}, {self.max_fraction})"
            )
        if self.strategy not in ("amortized", "exhaustive"):
            raise ConfigurationError(
                f"strategy must be 'amortized' or 'exhaustive', got "
                f"{self.strategy!r}"
            )

    def fractions(self) -> np.ndarray:
        """The subset fractions measured per repeat."""
        if self.n_points == 1:
            return np.array([self.max_fraction])
        return np.linspace(self.min_fraction, self.max_fraction, self.n_points)


def default_model_factory(n_classes: int) -> SoftmaxRegression:
    """Default model: softmax regression (fast, adequate for the substrates)."""
    return SoftmaxRegression(n_classes=n_classes, random_state=0)


class LearningCurveEstimator:
    """Estimates one power-law learning curve per slice.

    Parameters
    ----------
    model_factory:
        Callable mapping ``n_classes`` to a fresh model; defaults to softmax
        regression.
    trainer_config:
        Hyperparameters for each model training (fixed once, as in the paper).
    config:
        The estimation protocol configuration.
    random_state:
        Seed or generator; one root seed is drawn up-front and every
        estimation derives its subsets and per-job seeds from (root seed,
        data content), so identical data always produces identical jobs.
    executor:
        Where the training jobs run; defaults to a fresh
        :class:`~repro.engine.executor.SerialExecutor`.  Attach a
        :class:`~repro.engine.cache.ResultCache` to the executor to skip
        repeated trainings entirely.
    incremental:
        When True, fitted curves are cached per slice and subsequent
        :meth:`estimate` calls only re-measure slices whose training pools
        changed (the :class:`~repro.engine.cache.CurveCache` is exposed as
        :attr:`curve_cache`).
    curve_store:
        Optional :class:`~repro.engine.diskcache.SqliteResultCache` whose
        curve tier should back the incremental cache.  Fitted curves are
        then keyed by (estimation context, pool content) and survive
        process restarts; ignored unless ``incremental`` is True.
    """

    def __init__(
        self,
        model_factory: ModelFactory | None = None,
        trainer_config: TrainingConfig | None = None,
        config: CurveEstimationConfig | None = None,
        random_state: RandomState = None,
        executor: Executor | None = None,
        incremental: bool = False,
        curve_store: object | None = None,
    ) -> None:
        self.model_factory = model_factory or default_model_factory
        self.trainer_config = trainer_config or TrainingConfig()
        self.config = config or CurveEstimationConfig()
        self._rng = as_generator(random_state)
        self._root_seed = int(self._rng.integers(0, _SEED_BOUND))
        self.executor = executor or SerialExecutor()
        self.curve_cache: CurveCache | None = None
        if incremental:
            if curve_store is not None:
                from repro.engine.diskcache import SqliteCurveCache

                self.curve_cache = SqliteCurveCache(
                    curve_store, context=self._curve_context()
                )
            else:
                self.curve_cache = CurveCache()
        #: Number of model trainings performed so far (for the Table 8 bench).
        #: Cache-served jobs do not count — the counter stays honest.
        self.trainings_performed = 0

    def _curve_context(self) -> str:
        """Everything a fitted curve depends on besides the pool content.

        Two estimators share persisted curves exactly when this context and
        the pool fingerprint both match: same root seed (job seeds derive
        from it), same model factory, same trainer configuration, and same
        estimation protocol.
        """
        protocol = (
            self.config.n_points,
            self.config.min_fraction,
            self.config.max_fraction,
            self.config.n_repeats,
            self.config.strategy,
        )
        return "\x1f".join(
            (
                str(self._root_seed),
                describe_factory(self.model_factory),
                _fingerprint_config(self.trainer_config),
                repr(protocol),
            )
        )

    # -- public API -----------------------------------------------------------
    def estimate(
        self, sliced: SlicedDataset, only: Iterable[str] | None = None
    ) -> dict[str, FittedCurve]:
        """Estimate learning curves for every slice of ``sliced``.

        ``only`` restricts measurement and fitting to the named slices (the
        returned mapping then covers just those).  In incremental mode the
        estimator works that set out itself — slices whose pools are
        unchanged since the last call are served from :attr:`curve_cache` —
        and always returns a curve for every slice.
        """
        if self.curve_cache is not None and only is None:
            return self._estimate_incremental(sliced)
        names = self._select_names(sliced, only)
        points = self.collect_points(sliced, only=names)
        return self.fit_points(points, names)

    def collect_points(
        self,
        sliced: SlicedDataset,
        only: Iterable[str] | None = None,
        pool_fingerprints: Mapping[str, str] | None = None,
    ) -> list[CurvePoint]:
        """Measure raw (size, loss) points for the (named) slices.

        Builds the full job batch first — per-job seeds pre-spawned from the
        content-derived RNG — submits it to the executor in one wave, then
        evaluates every returned model on the relevant validation sets.
        ``pool_fingerprints`` lets callers that already hashed the slice
        pools (the incremental path) avoid a second pass.
        """
        names = self._select_names(sliced, only)
        if self.config.strategy == "amortized":
            jobs = self._amortized_jobs(sliced, pool_fingerprints)
            results = self._execute(jobs)
            return self._amortized_points(sliced, names, results)
        jobs = self._exhaustive_jobs(sliced, names, pool_fingerprints)
        results = self._execute(jobs)
        return self._exhaustive_points(sliced, results)

    def fit_points(
        self,
        points: Sequence[CurvePoint],
        slice_names: Sequence[str],
    ) -> dict[str, FittedCurve]:
        """Fit one averaged power-law curve per slice from measured points.

        Curves are fitted separately per repeat and averaged; slices whose
        points cannot support a fit (fewer than two distinct sizes) fall back
        to a single fit over all their points, and ultimately to a flat curve
        anchored at the mean measured loss so downstream optimization always
        has a curve to work with.
        """
        by_slice: dict[str, list[CurvePoint]] = {name: [] for name in slice_names}
        for point in points:
            bucket = by_slice.get(point.slice_name)
            if bucket is not None:
                bucket.append(point)
        curves: dict[str, FittedCurve] = {}
        for name in slice_names:
            slice_points = by_slice[name]
            if not slice_points:
                raise FittingError(f"no measured points for slice {name!r}")
            curves[name] = self._fit_slice(name, slice_points)
        return curves

    # -- incremental re-estimation ---------------------------------------------
    def _estimate_incremental(self, sliced: SlicedDataset) -> dict[str, FittedCurve]:
        """Only re-measure and refit slices whose pools changed.

        The exhaustive protocol re-trains only for the stale slices (true
        training savings).  The amortized protocol's trainings each cover
        every slice at once, so any pool change re-runs the full wave anyway
        — there the cache's value is skipping estimation entirely when
        *nothing* changed, and when something did change every curve is
        refreshed (the per-slice loss evaluations are cheap next to the
        trainings, and fresh fits beat stale ones at no extra training
        cost).
        """
        cache = self.curve_cache
        assert cache is not None
        # One fingerprint pass per estimate, shared by staleness detection,
        # job construction, and the cache refresh.
        fingerprints = slice_pool_fingerprints(sliced)
        stale = cache.stale_slices(sliced, fingerprints=fingerprints)
        if stale and self.config.strategy == "amortized":
            stale = list(sliced.names)
        fresh_set = set(stale)
        cached = cache.cached_curves(
            [name for name in sliced.names if name not in fresh_set]
        )
        if stale:
            points = self.collect_points(
                sliced, only=stale, pool_fingerprints=fingerprints
            )
            fitted = self.fit_points(points, stale)
            cache.update(sliced, fitted, fingerprints=fingerprints)
        else:
            fitted = {}
        return {
            name: fitted[name] if name in fresh_set else cached[name]
            for name in sliced.names
        }

    # -- job construction -------------------------------------------------------
    def _select_names(
        self, sliced: SlicedDataset, only: Iterable[str] | None
    ) -> list[str]:
        if only is None:
            return list(sliced.names)
        requested = set(only)
        unknown = requested - set(sliced.names)
        if unknown:
            raise ConfigurationError(f"unknown slices requested: {sorted(unknown)}")
        return [name for name in sliced.names if name in requested]

    def _data_fingerprint(
        self,
        sliced: SlicedDataset,
        pool_fingerprints: Mapping[str, str] | None = None,
    ) -> str:
        """Content hash of every slice's current training pool."""
        if pool_fingerprints is None:
            pool_fingerprints = slice_pool_fingerprints(sliced)
        return "|".join(
            f"{name}:{pool_fingerprints[name]}" for name in sliced.names
        )

    def _job(
        self, train, sliced: SlicedDataset, seed: int, tag, factory_name: str
    ) -> TrainingJob:
        return TrainingJob(
            train=train,
            n_classes=sliced.n_classes,
            seed=seed,
            trainer_config=self.trainer_config,
            model_factory=self.model_factory,
            factory_name=factory_name,
            tag=tag,
        )

    def _amortized_jobs(
        self,
        sliced: SlicedDataset,
        pool_fingerprints: Mapping[str, str] | None = None,
    ) -> list[TrainingJob]:
        """Efficient protocol: one job per (repeat, subset fraction)."""
        fractions = self.config.fractions()
        rng = np.random.default_rng(
            stable_seed(
                self._root_seed,
                "amortized",
                self._data_fingerprint(sliced, pool_fingerprints),
            )
        )
        # Per-job seeds are spawned up-front, one per lattice cell, so the
        # seed of job (repeat, fraction) never depends on which other cells
        # produced non-empty subsets.
        seeds = spawn_seeds(rng, self.config.n_repeats * len(fractions))
        factory_name = describe_factory(self.model_factory)
        jobs: list[TrainingJob] = []
        cell = 0
        for repeat in range(self.config.n_repeats):
            for fraction in fractions:
                seed = seeds[cell]
                cell += 1
                train = sliced.subset_train(fraction=float(fraction), random_state=rng)
                if len(train) == 0:
                    continue
                jobs.append(
                    self._job(
                        train,
                        sliced,
                        seed,
                        tag=(repeat, float(fraction)),
                        factory_name=factory_name,
                    )
                )
        return jobs

    def _exhaustive_jobs(
        self,
        sliced: SlicedDataset,
        names: Sequence[str],
        pool_fingerprints: Mapping[str, str] | None = None,
    ) -> list[TrainingJob]:
        """Exhaustive protocol: one job per (repeat, slice, subset fraction).

        Each (repeat, slice) cell derives its own RNG from the full data
        fingerprint, so restricting ``names`` (incremental refits) builds
        byte-identical jobs for the slices it does cover — and therefore
        hits the result cache exactly when nothing those jobs depend on
        changed.
        """
        fractions = self.config.fractions()
        data_fingerprint = self._data_fingerprint(sliced, pool_fingerprints)
        full_sizes = {name: sliced[name].size for name in sliced.names}
        factory_name = describe_factory(self.model_factory)
        jobs: list[TrainingJob] = []
        for repeat in range(self.config.n_repeats):
            for name in names:
                cell_rng = np.random.default_rng(
                    stable_seed(
                        self._root_seed, "exhaustive", data_fingerprint, repeat, name
                    )
                )
                seeds = spawn_seeds(cell_rng, len(fractions))
                for index, fraction in enumerate(fractions):
                    subset_size = int(round(full_sizes[name] * float(fraction)))
                    if subset_size <= 0:
                        continue
                    sizes = dict(full_sizes)
                    sizes[name] = subset_size
                    train = sliced.subset_train(sizes=sizes, random_state=cell_rng)
                    if len(train) == 0:
                        continue
                    jobs.append(
                        self._job(
                            train,
                            sliced,
                            seeds[index],
                            tag=(repeat, name, subset_size),
                            factory_name=factory_name,
                        )
                    )
        return jobs

    def _execute(self, jobs: list[TrainingJob]) -> list[JobResult]:
        results = self.executor.submit(jobs)
        self.trainings_performed += sum(
            1 for result in results if not result.from_cache
        )
        return results

    # -- point evaluation --------------------------------------------------------
    def _amortized_points(
        self,
        sliced: SlicedDataset,
        names: Sequence[str],
        results: Sequence[JobResult],
    ) -> list[CurvePoint]:
        validation = sliced.validation_by_slice()
        sizes = {name: sliced[name].size for name in sliced.names}
        points: list[CurvePoint] = []
        for result in results:
            repeat, fraction = result.tag
            for name in names:
                subset_size = int(round(sizes[name] * fraction))
                if subset_size <= 0:
                    continue
                loss = log_loss(result.model, validation[name])
                if np.isfinite(loss):
                    points.append(
                        CurvePoint(
                            slice_name=name,
                            size=subset_size,
                            loss=float(loss),
                            repeat=repeat,
                        )
                    )
        return points

    def _exhaustive_points(
        self, sliced: SlicedDataset, results: Sequence[JobResult]
    ) -> list[CurvePoint]:
        validation = sliced.validation_by_slice()
        points: list[CurvePoint] = []
        for result in results:
            repeat, name, subset_size = result.tag
            loss = log_loss(result.model, validation[name])
            if np.isfinite(loss):
                points.append(
                    CurvePoint(
                        slice_name=name,
                        size=subset_size,
                        loss=float(loss),
                        repeat=repeat,
                    )
                )
        return points

    # -- fitting ----------------------------------------------------------------
    def _fit_slice(self, name: str, slice_points: Sequence[CurvePoint]) -> FittedCurve:
        sizes = np.array([p.size for p in slice_points], dtype=np.float64)
        losses = np.array([p.loss for p in slice_points], dtype=np.float64)
        repeats = np.array([p.repeat for p in slice_points], dtype=np.int64)

        per_repeat_curves = []
        for repeat in np.unique(repeats):
            mask = repeats == repeat
            try:
                per_repeat_curves.append(
                    fit_power_law(sizes[mask], losses[mask], sizes[mask])
                )
            except FittingError:
                continue

        if per_repeat_curves:
            averaged = average_curves(per_repeat_curves)
            residual = weighted_log_rmse(averaged, sizes, losses, sizes)
            return FittedCurve(
                slice_name=name,
                curve=averaged,
                sizes=sizes,
                losses=losses,
                weights=sizes,
                residual=residual,
                reliability=float(np.exp(-residual)),
            )
        try:
            return fit_averaged_curve(name, sizes, losses, sizes)
        except FittingError:
            # Degenerate case (e.g. a single measured size): fall back to a
            # nearly flat curve anchored at the mean loss, so the optimizer
            # treats the slice as having little to gain — which is the
            # paper's "fall back to performing like baselines" behaviour.
            mean_loss = float(np.clip(losses.mean(), 1e-6, None))
            mean_size = float(np.clip(sizes.mean(), 1.0, None))
            flat_a = 1e-3
            flat_b = mean_loss * mean_size**flat_a
            from repro.curves.power_law import PowerLawCurve

            return FittedCurve(
                slice_name=name,
                curve=PowerLawCurve(b=flat_b, a=flat_a),
                sizes=sizes,
                losses=losses,
                weights=sizes,
                residual=0.0,
                reliability=0.0,
            )
