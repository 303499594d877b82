"""Shared mini-batch training loop.

Every model training in the reproduction — the hundreds of trainings behind
learning-curve estimation, the final evaluation trainings, the influence
experiments — uses the same hyperparameters, batching, and early-stopping
behaviour, exactly like the paper fixes hyperparameters once per dataset and
never changes them again.  Two loops implement it:

* :class:`Trainer` fits one model: any :class:`TrainableModel`, with or
  without a validation set and early stopping.
* :func:`fit_lockstep` fits a group of softmax models that share class,
  hyperparameters, :class:`TrainingConfig` and input width as one stacked
  model: parameters and optimizer state carry a leading model axis, so each
  mini-batch position is one batched step for the whole group.  Each model
  keeps its own seeded shuffles, its own ragged last batch (a sub-step of
  that model alone) and its own optimizer step count, so its weights come
  out **bitwise equal** to what :class:`Trainer` gives it: grouping is only
  a schedule.  Validation sets and early stopping stay on :class:`Trainer`.

Both loops check the labels once per fit, before any step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.losses import check_labels
from repro.ml.optim import Optimizer, make_optimizer
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ml.linear import SoftmaxRegression

#: Bytes of gathered mini-batch features :func:`fit_lockstep` holds at once;
#: it gathers a window of steps per refill, never a whole epoch.
_WINDOW_BYTES = 1 << 19


class TrainableModel(Protocol):
    """Structural interface the Trainer expects of a model."""

    n_classes: int

    def initialize(self, n_features: int) -> None: ...

    def parameters(self) -> list[np.ndarray]: ...

    def gradients(
        self, features: np.ndarray, labels: np.ndarray
    ) -> list[np.ndarray]: ...

    def loss(self, dataset: Dataset) -> float: ...

    def predict(self, features: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for a training run.

    Attributes
    ----------
    epochs:
        Maximum number of passes over the training data.
    batch_size:
        Mini-batch size; batches are drawn without replacement each epoch.
    optimizer:
        Name of the optimizer (``"sgd"``, ``"momentum"``, ``"adam"``).
    learning_rate:
        Step size passed to the optimizer.
    early_stopping_patience:
        Stop if the validation loss has not improved for this many epochs.
        ``0`` disables early stopping.
    validation_fraction:
        When early stopping is enabled and no explicit validation set is
        given to :meth:`Trainer.fit`, this fraction of the training data is
        held out internally.
    restore_best:
        When early stopping is in force, restore the parameters of the epoch
        with the best validation loss instead of keeping the post-patience
        weights.  Off by default, matching the historical behaviour.
    """

    epochs: int = 60
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 0.02
    early_stopping_patience: int = 0
    validation_fraction: float = 0.0
    restore_best: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")
        if self.early_stopping_patience < 0:
            raise ConfigurationError(
                f"early_stopping_patience must be >= 0, got "
                f"{self.early_stopping_patience}"
            )
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError(
                f"validation_fraction must lie in [0, 1), got "
                f"{self.validation_fraction}"
            )


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes
    ----------
    epochs_run:
        Number of epochs actually executed (may be fewer than configured if
        early stopping triggered).
    validation_losses:
        Per-epoch loss on the validation data (empty when none was used).
    stopped_early:
        Whether the patience criterion ended training.
    best_epoch:
        1-based epoch with the best validation loss (``None`` when no
        validation ran).
    restored_best:
        Whether the best epoch's parameters were restored into the model
        (``restore_best`` configs only).
    """

    epochs_run: int = 0
    validation_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int | None = None
    restored_best: bool = False


class Trainer:
    """Mini-batch gradient-descent training loop.

    Parameters
    ----------
    config:
        Training hyperparameters; a default config is used when omitted.
    random_state:
        Controls batch shuffling and the internal validation split.
    """

    def __init__(
        self,
        config: TrainingConfig | None = None,
        random_state: RandomState = None,
    ) -> None:
        self.config = config or TrainingConfig()
        self._rng = as_generator(random_state)

    def fit(
        self,
        model: TrainableModel,
        train: Dataset,
        validation: Dataset | None = None,
    ) -> TrainingResult:
        """Train ``model`` on ``train`` and return a :class:`TrainingResult`.

        The model is (re-)initialized, so a fresh model of the same
        architecture is fitted each time — matching the paper's protocol of
        retraining from scratch on every data subset.
        """
        if len(train) == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        check_labels(train.labels, model.n_classes)
        config = self.config

        if (
            validation is None
            and config.early_stopping_patience > 0
            and config.validation_fraction > 0.0
            and len(train) >= 10
        ):
            from repro.ml.data import train_validation_split

            train, validation = train_validation_split(
                train, config.validation_fraction, random_state=self._rng
            )

        model.initialize(train.n_features)
        optimizer: Optimizer = make_optimizer(config.optimizer, config.learning_rate)
        result = TrainingResult()

        best_validation = float("inf")
        best_parameters: list[np.ndarray] | None = None
        epochs_without_improvement = 0
        track_best = (
            config.restore_best and config.early_stopping_patience > 0
        )

        for epoch in range(config.epochs):
            self._run_epoch(model, optimizer, train)
            result.epochs_run = epoch + 1

            if validation is not None and len(validation) > 0:
                val_loss = model.loss(validation)
                result.validation_losses.append(val_loss)
                if val_loss < best_validation - 1e-6:
                    best_validation = val_loss
                    result.best_epoch = epoch + 1
                    epochs_without_improvement = 0
                    if track_best:
                        best_parameters = [p.copy() for p in model.parameters()]
                elif config.early_stopping_patience > 0:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= config.early_stopping_patience:
                        result.stopped_early = True
                        break

        if track_best and best_parameters is not None:
            for parameter, best in zip(model.parameters(), best_parameters):
                parameter[...] = best
            result.restored_best = True
        return result

    def _run_epoch(
        self, model: TrainableModel, optimizer: Optimizer, train: Dataset
    ) -> None:
        """One pass over the training data in shuffled mini-batches."""
        n = len(train)
        order = self._rng.permutation(n)
        batch_size = min(self.config.batch_size, n)
        for start in range(0, n, batch_size):
            source, rows = train.locate(order[start : start + batch_size])
            grads = model.gradients(source.features[rows], source.labels[rows])
            optimizer.update(model.parameters(), grads)


def fit_lockstep(
    models: Sequence["SoftmaxRegression"],
    datasets: Sequence[Dataset],
    random_states: Sequence[RandomState],
    config: TrainingConfig,
) -> list[TrainingResult]:
    """Fit ``models[i]`` on ``datasets[i]`` for every ``i`` in one loop.

    Each model ends bitwise equal to
    ``Trainer(config, random_states[i]).fit(models[i], datasets[i])``.  The
    models must share class and hyperparameters, the datasets their feature
    width, and ``config`` must not ask for early stopping.  Every dataset
    is checked (non-empty, labels in range) before any model is touched.

    The schedule: a model with ``n`` rows takes ``n // batch_size`` full
    steps per epoch plus, when ``n % batch_size`` rows are left, one ragged
    step.  Lock-step ``s`` runs the ``s``-th full step of every model that
    has one, as a single stacked update; models are sorted by full-step
    count, so those are a prefix and slicing it gives views.  A ragged step
    runs alone, between the model's last full step of the epoch and its
    first of the next.  Batches are gathered a window of steps at a time,
    never as a stacked copy of the data, through each dataset's
    :meth:`~repro.ml.data.Dataset.locate`: a :class:`~repro.ml.data.RowView`
    is read straight from its shared pool.
    """
    if config.early_stopping_patience:
        raise ConfigurationError("lock-step training does not early-stop")
    for model, data in zip(models, datasets, strict=True):
        if len(data) == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        check_labels(data.labels, model.n_classes)
    batch, epochs = config.batch_size, config.epochs
    # Most full steps first, so the models still stepping form a prefix.
    order = sorted(range(len(models)), key=lambda i: -(len(datasets[i]) // batch))
    models = [models[i] for i in order]
    datasets = [datasets[i] for i in order]
    rngs = [as_generator(random_states[i]) for i in order]
    for model, data in zip(models, datasets):
        model.initialize(data.n_features)
    full = [len(data) // batch for data in datasets]
    last = [epochs * count for count in full]
    # Weights and bias share one (models, d * k + k) buffer, so the
    # elementwise optimizer update runs once per step, not once per array.
    width, n_classes = models[0].weights.shape
    theta = np.stack(
        [np.concatenate([model.weights.ravel(), model.bias]) for model in models]
    )
    weights = theta[:, : width * n_classes].reshape(len(models), width, n_classes)
    bias = theta[:, width * n_classes :]
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    stacked = copy.copy(models[0])

    def step_models(rows: slice, features: np.ndarray, labels: np.ndarray) -> None:
        stacked.weights, stacked.bias = weights[rows], bias[rows]
        dweights, dbias = stacked.gradients(features, labels)
        flat = np.concatenate([dweights.reshape(len(dbias), -1), dbias], axis=1)
        optimizer.update([theta], [flat], models=rows)

    # Epoch e of model i ends just before lock-step (e + 1) * full[i].
    epoch_ends: dict[int, list[tuple[int, int]]] = {}
    for i, count in enumerate(full):
        for epoch in range(epochs):
            epoch_ends.setdefault((epoch + 1) * count, []).append((i, epoch))
    shuffles: list[dict[int, np.ndarray]] = [{} for _ in models]
    drawn = [0] * len(models)

    def shuffle(i: int, epoch: int) -> np.ndarray:
        # Drawn in epoch order from the model's own generator, as Trainer does.
        while drawn[i] <= epoch:
            shuffles[i][drawn[i]] = rngs[i].permutation(len(datasets[i]))
            drawn[i] += 1
        return shuffles[i][epoch]

    def full_batches(i: int, begin: int, end: int) -> np.ndarray:
        # Row indices of model i's full steps begin .. end - 1, in order.
        parts = []
        while begin < end:
            epoch, offset = divmod(begin, full[i])
            until = min(end, (epoch + 1) * full[i])
            parts.append(
                shuffle(i, epoch)[offset * batch : (offset + until - begin) * batch]
            )
            begin = until
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    window = max(1, _WINDOW_BYTES // (len(models) * batch * width * 8))
    features = np.empty((len(models), window, batch, width))
    labels = np.empty((len(models), window, batch), dtype=np.int64)
    active, start = len(models), 0
    for step in range(last[0] + 1):
        for i, epoch in epoch_ends.pop(step, ()):
            source, rows = datasets[i].locate(shuffle(i, epoch)[full[i] * batch :])
            del shuffles[i][epoch]
            if rows.size:
                step_models(
                    slice(i, i + 1),
                    source.features[rows][None],
                    source.labels[rows][None],
                )
        if step == last[0]:
            break
        while last[active - 1] <= step:
            active -= 1
        if step == 0 or step == start + window:
            start = step
            for i in range(active):
                stop = min(step + window, last[i])
                source, rows = datasets[i].locate(full_batches(i, step, stop))
                out = features[i, : stop - step].reshape(-1, width)
                np.take(source.features, rows, axis=0, out=out, mode="clip")
                out = labels[i, : stop - step].reshape(-1)
                np.take(source.labels, rows, out=out, mode="clip")
        at = step - start
        step_models(slice(0, active), features[:active, at], labels[:active, at])

    for i, model in enumerate(models):
        model.weights, model.bias = weights[i].copy(), bias[i].copy()
    return [TrainingResult(epochs_run=epochs) for _ in models]


def train_model(
    model: TrainableModel,
    train: Dataset,
    validation: Dataset | None = None,
    config: TrainingConfig | None = None,
    random_state: RandomState = None,
) -> TrainingResult:
    """Functional convenience wrapper around :class:`Trainer`."""
    return Trainer(config=config, random_state=random_state).fit(
        model, train, validation
    )
