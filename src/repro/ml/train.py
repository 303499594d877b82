"""The one mini-batch training loop.

Every model training in the reproduction — the hundreds of trainings behind
learning-curve estimation, the final evaluation trainings, the influence
experiments — uses the same hyperparameters and batching, exactly like the
paper fixes hyperparameters once per dataset and never changes them again.
One loop implements it, :func:`fit_lockstep`: it fits a group of models
that share class, hyperparameters, :class:`TrainingConfig` and input width
as one stacked model.  Parameters and optimizer state carry a leading model
axis, so each mini-batch position is one batched step for the whole group.
Each model keeps its own seeded shuffles, its own ragged last batch (a
sub-step of that model alone) and its own optimizer step count, so its
weights come out **bitwise equal** to training it alone: grouping is only a
schedule.  :class:`Trainer` fits one model as a group of one.

The labels are checked once per fit, before any step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.losses import check_labels
from repro.ml.optim import make_optimizer
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

#: Bytes of gathered mini-batch features :func:`fit_lockstep` holds at once;
#: it gathers a window of steps per refill, never a whole epoch.
_WINDOW_BYTES = 1 << 19


class TrainableModel(Protocol):
    """Structural interface the training loop expects of a model.

    :meth:`gradients` takes leading model axes: with every parameter
    stacked over ``m`` models (:meth:`set_parameters`), ``(m, n, d)``
    features and ``(m, n)`` labels, it returns each model's gradients
    stacked the same way, each row bitwise what the model alone gets.
    """

    n_classes: int

    def initialize(self, n_features: int) -> None: ...

    def parameters(self) -> list[np.ndarray]: ...

    def set_parameters(self, params: Sequence[np.ndarray]) -> None: ...

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
        Number of passes over the training data.
    batch_size:
        Mini-batch size; batches are drawn without replacement each epoch.
    optimizer:
        Name of the optimizer (``"sgd"``, ``"momentum"``, ``"adam"``).
    learning_rate:
        Step size passed to the optimizer.
    """

    epochs: int = 60
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 0.02

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")


@dataclass
class TrainingResult:
    """Outcome of a training run: ``epochs_run``, the epochs executed."""

    epochs_run: int = 0


class Trainer:
    """Trains one model, as a lock-step group of one (:func:`fit_lockstep`).

    Parameters
    ----------
    config:
        Training hyperparameters; a default config is used when omitted.
    random_state:
        Controls batch shuffling.
    """

    def __init__(
        self,
        config: TrainingConfig | None = None,
        random_state: RandomState = None,
    ) -> None:
        self.config = config or TrainingConfig()
        self._rng = as_generator(random_state)

    def fit(self, model: TrainableModel, train: Dataset) -> TrainingResult:
        """Train ``model`` on ``train`` and return a :class:`TrainingResult`.

        The model is (re-)initialized, so a fresh model of the same
        architecture is fitted each time — matching the paper's protocol of
        retraining from scratch on every data subset.
        """
        return fit_lockstep([model], [train], [self._rng], self.config)[0]


def fit_lockstep(
    models: Sequence[TrainableModel],
    datasets: Sequence[Dataset],
    random_states: Sequence[RandomState],
    config: TrainingConfig,
) -> list[TrainingResult]:
    """Fit ``models[i]`` on ``datasets[i]`` for every ``i`` in one loop.

    Each model ends bitwise equal to training it alone: a plain loop over
    epochs, each drawing one permutation from ``random_states[i]`` and
    stepping through it in mini-batches.  The models must share class and
    hyperparameters, and the datasets their feature width.  Every dataset
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
    # All parameters share one (models, total size) buffer, so the
    # elementwise optimizer update runs once per step, not once per array;
    # ``params`` are its per-array views, each with a leading model axis.
    shapes = [param.shape for param in models[0].parameters()]
    theta = np.stack(
        [
            np.concatenate([param.ravel() for param in model.parameters()])
            for model in models
        ]
    )
    bounds = np.cumsum([0, *(math.prod(shape) for shape in shapes)])
    params = [
        theta[:, begin:end].reshape(len(models), *shape)
        for begin, end, shape in zip(bounds, bounds[1:], shapes)
    ]
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    stacked = copy.copy(models[0])

    def step_models(rows: slice, features: np.ndarray, labels: np.ndarray) -> None:
        stacked.set_parameters([param[rows] for param in params])
        grads = stacked.gradients(features, labels)
        flat = np.concatenate(
            [grad.reshape(len(labels), -1) for grad in grads], axis=1
        )
        optimizer.update([theta], [flat], models=rows)

    # Epoch e of model i ends just before lock-step (e + 1) * full[i].
    epoch_ends: dict[int, list[tuple[int, int]]] = {}
    for i, count in enumerate(full):
        for epoch in range(epochs):
            epoch_ends.setdefault((epoch + 1) * count, []).append((i, epoch))
    shuffles: list[dict[int, np.ndarray]] = [{} for _ in models]
    drawn = [0] * len(models)

    def shuffle(i: int, epoch: int) -> np.ndarray:
        # Drawn in epoch order from the model's own generator, as a lone
        # training draws them.
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

    width = datasets[0].n_features
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
        model.set_parameters([param[i].copy() for param in params])
    return [TrainingResult(epochs_run=epochs) for _ in models]
