"""A per-model training loop: the reference the stacked loop is checked against.

Plain and unstacked: each epoch draws one permutation of the rows from the
model's own generator and steps through it in mini-batches, the last one
ragged.  Its optimizers keep their state per parameter array, with one
scalar step count.  They use the float expressions of ``repro.ml.optim``,
so a model trained here and the same model trained by
:func:`repro.ml.train.fit_lockstep`, in any group, must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.data import Dataset
from repro.ml.train import TrainingConfig, TrainingResult
from repro.utils.rng import RandomState, as_generator


class SGD:
    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for param, grad in zip(params, grads):
            param -= self.learning_rate * grad


class Momentum:
    def __init__(self, learning_rate: float, momentum: float = 0.9) -> None:
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocities: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.velocities is None:
            self.velocities = [np.zeros_like(param) for param in params]
        for param, grad, velocity in zip(params, grads, self.velocities):
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            param += velocity


class Adam:
    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.moments: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.steps = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.moments is None:
            self.moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        self.steps += 1
        bias1 = 1.0 - self.beta1**self.steps
        bias2 = 1.0 - self.beta2**self.steps
        for param, grad, (m, v) in zip(params, grads, self.moments):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


OPTIMIZERS = {"sgd": SGD, "momentum": Momentum, "adam": Adam}


def train_alone(
    model, data: Dataset, random_state: RandomState, config: TrainingConfig
) -> TrainingResult:
    """Train ``model`` from scratch on ``data`` alone, one epoch at a time."""
    rng = as_generator(random_state)
    model.initialize(data.n_features)
    optimizer = OPTIMIZERS[config.optimizer](config.learning_rate)
    features, labels = data.features, data.labels
    for _ in range(config.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), config.batch_size):
            rows = order[start : start + config.batch_size]
            optimizer.step(
                model.parameters(), model.gradients(features[rows], labels[rows])
            )
    return TrainingResult(epochs_run=config.epochs)
