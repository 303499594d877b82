"""First-order optimizers for the NumPy classifiers.

The optimizers operate on a flat list of parameter arrays and matching
gradient arrays; models own their parameters and call ``update`` once per
mini-batch.  ``SGD``, ``Momentum``, and ``Adam`` cover everything the paper's
small CNN/fully-connected models need.

The same optimizer also steps many same-shape models at once (lock-step
training, :func:`repro.ml.train.fit_lockstep`): the parameters then carry a
leading model axis, ``update(..., models=rows)`` steps only those rows, and
every piece of state (moments, Adam's step count) is kept per row — so each
row evolves bit for bit as it would under an optimizer of its own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive

#: Rows of stacked parameters to update (``None``: unstacked parameters).
Rows = slice | None


def _select(arrays: Sequence[np.ndarray], models: Rows) -> list[np.ndarray]:
    """Views of the ``models`` rows of each array (all of it for ``None``)."""
    if models is None:
        return list(arrays)
    return [array[models] for array in arrays]


class Optimizer:
    """Base class: applies gradient updates to a list of parameter arrays."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        self.learning_rate = check_positive(learning_rate, "learning_rate")

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: Rows = None,
    ) -> None:
        """Update ``params`` in place using ``grads``.

        With ``models`` set, every parameter carries a leading model axis,
        ``grads`` hold the gradients of the rows ``params[j][models]`` only,
        and only those rows (and their optimizer state) move.  Pass the
        same full-size ``params`` on every call.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any internal state (moment estimates, step counters)."""


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: Rows = None,
    ) -> None:
        for param, grad in zip(_select(params, models), grads):
            param -= self.learning_rate * grad


class Momentum(Optimizer):
    """SGD with classical (heavy-ball) momentum."""

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.9) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocities: list[np.ndarray] | None = None

    def reset(self) -> None:
        self._velocities = None

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: Rows = None,
    ) -> None:
        if self._velocities is None:
            self._velocities = [np.zeros_like(p) for p in params]
        for param, grad, velocity in zip(
            _select(params, models), grads, _select(self._velocities, models)
        ):
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            param += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = check_positive(epsilon, "epsilon")
        self._first_moments: list[np.ndarray] | None = None
        self._second_moments: list[np.ndarray] | None = None
        #: Steps taken: an int, or one count per row once stacked.
        self._step: int | np.ndarray = 0

    def reset(self) -> None:
        self._first_moments = None
        self._second_moments = None
        self._step = 0

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: Rows = None,
    ) -> None:
        if self._first_moments is None:
            self._first_moments = [np.zeros_like(p) for p in params]
            self._second_moments = [np.zeros_like(p) for p in params]
            if models is not None:
                self._step = np.zeros(len(params[0]), dtype=np.int64)
        first, second = self._first_moments, self._second_moments
        if models is None:
            self._step += 1
            bias1 = 1.0 - self.beta1**self._step
            bias2 = 1.0 - self.beta2**self._step
        else:
            self._step[models] += 1
            # Python floats per row, as the unstacked update computes them,
            # so each row divides by the same bits.
            steps = self._step[models].tolist()
            bias1 = np.array([1.0 - self.beta1**step for step in steps])
            bias2 = np.array([1.0 - self.beta2**step for step in steps])
            params, first, second = (
                _select(arrays, models) for arrays in (params, first, second)
            )
        for param, grad, m, v in zip(params, grads, first, second):
            if models is not None:
                # Broadcast each row's correction over that row's entries.
                shape = (-1,) + (1,) * (param.ndim - 1)
                bias1, bias2 = bias1.reshape(shape), bias2.reshape(shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def make_optimizer(name: str, learning_rate: float = 0.05) -> Optimizer:
    """Construct an optimizer by name (``"sgd"``, ``"momentum"``, ``"adam"``)."""
    key = name.strip().lower()
    if key == "sgd":
        return SGD(learning_rate)
    if key == "momentum":
        return Momentum(learning_rate)
    if key == "adam":
        return Adam(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}; expected sgd, momentum, or adam")
