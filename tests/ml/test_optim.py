"""Tests for repro.ml.optim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.optim import SGD, Adam, Momentum, make_optimizer


def quadratic_descent(optimizer, steps: int = 200) -> float:
    """Minimize f(x) = ||x||^2 from a fixed start; return the final norm."""
    x = np.array([3.0, -2.0])
    for _ in range(steps):
        grad = 2.0 * x
        optimizer.update([x], [grad])
    return float(np.linalg.norm(x))


class TestOptimizersConverge:
    def test_sgd_reduces_quadratic(self):
        assert quadratic_descent(SGD(learning_rate=0.1)) < 1e-3

    def test_momentum_reduces_quadratic(self):
        assert quadratic_descent(Momentum(learning_rate=0.05, momentum=0.9)) < 1e-3

    def test_adam_reduces_quadratic(self):
        assert quadratic_descent(Adam(learning_rate=0.1), steps=400) < 1e-2

    def test_updates_are_in_place(self):
        x = np.array([1.0])
        SGD(learning_rate=0.5).update([x], [np.array([1.0])])
        assert x[0] == pytest.approx(0.5)


class TestOptimizerValidation:
    def test_negative_learning_rate_rejected(self):
        with pytest.raises(Exception):
            SGD(learning_rate=-0.1)

    def test_momentum_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Momentum(momentum=1.0)

    def test_adam_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)


class TestOptimizerState:
    def test_momentum_reset_clears_velocity(self):
        opt = Momentum(learning_rate=0.1)
        x = np.array([1.0])
        opt.update([x], [np.array([1.0])])
        opt.reset()
        assert opt._velocities is None

    def test_adam_reset_clears_moments(self):
        opt = Adam()
        x = np.array([1.0])
        opt.update([x], [np.array([1.0])])
        opt.reset()
        assert opt._first_moments is None and opt._step is None

    def test_adam_handles_multiple_parameter_arrays(self):
        opt = Adam(learning_rate=0.1)
        a, b = np.array([1.0, 2.0]), np.array([[1.0], [2.0]])
        opt.update([a, b], [np.ones_like(a), np.ones_like(b)])
        assert a.shape == (2,) and b.shape == (2, 1)


class TestMakeOptimizer:
    @pytest.mark.parametrize(
        "name, cls", [("sgd", SGD), ("momentum", Momentum), ("adam", Adam)]
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_optimizer(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_optimizer("  ADAM "), Adam)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_optimizer("lbfgs")
