"""First-order optimizers for the NumPy classifiers.

An optimizer steps many same-shape models at once (lock-step training,
:func:`repro.ml.train.fit_lockstep`; a lone model is a group of one): every
parameter array carries a leading model axis, ``update(..., models=rows)``
steps only those rows, and every piece of state (moments, Adam's step
count) is kept per row — so each row evolves bit for bit as it would under
an optimizer of its own.  ``SGD``, ``Momentum``, and ``Adam`` cover
everything the paper's small CNN/fully-connected models need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive


class Optimizer:
    """Base class: applies gradient updates to a list of parameter arrays."""

    def __init__(self, learning_rate: float = 0.1) -> None:
        self.learning_rate = check_positive(learning_rate, "learning_rate")

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: slice = slice(None),
    ) -> None:
        """Update the ``models`` rows of ``params`` in place using ``grads``.

        Every parameter carries a leading model axis, ``grads`` hold the
        gradients of the rows ``params[j][models]`` only, and only those
        rows (and their optimizer state) move.  Pass the same full-size
        ``params`` on every call.
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
        models: slice = slice(None),
    ) -> None:
        for param, grad in zip(params, grads):
            param = param[models]
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
        models: slice = slice(None),
    ) -> None:
        if self._velocities is None:
            self._velocities = [np.zeros_like(p) for p in params]
        for param, grad, velocity in zip(params, grads, self._velocities):
            param, velocity = param[models], velocity[models]
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
        #: Steps taken, one count per row.
        self._step: np.ndarray | None = None

    def reset(self) -> None:
        self._first_moments = None
        self._second_moments = None
        self._step = None

    def update(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        models: slice = slice(None),
    ) -> None:
        if self._first_moments is None:
            self._first_moments = [np.zeros_like(p) for p in params]
            self._second_moments = [np.zeros_like(p) for p in params]
            self._step = np.zeros(len(params[0]), dtype=np.int64)
        self._step[models] += 1
        # Python floats per row, as a lone model's scalar step count gives
        # them, so each row divides by the same bits.
        steps = self._step[models].tolist()
        bias1 = np.array([1.0 - self.beta1**step for step in steps])
        bias2 = np.array([1.0 - self.beta2**step for step in steps])
        for param, grad, m, v in zip(
            params, grads, self._first_moments, self._second_moments
        ):
            param, m, v = param[models], m[models], v[models]
            # Broadcast each row's correction over that row's entries.
            shape = (-1,) + (1,) * (param.ndim - 1)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / bias1.reshape(shape)
            v_hat = v / bias2.reshape(shape)
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
