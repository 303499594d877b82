"""Linear classifiers: softmax (multinomial) and binary logistic regression.

These are the work-horse models of the reproduction.  The AdultCensus
experiments in the paper use a fully connected network with no hidden layer,
which is exactly softmax regression; the image datasets use small CNNs, whose
role here is played by :class:`repro.ml.mlp.MLPClassifier`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.losses import (
    binary_cross_entropy_loss,
    cross_entropy_gradient,
    cross_entropy_loss,
    one_hot,
    sigmoid,
    softmax,
)
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_non_negative, check_positive_int


class SoftmaxRegression:
    """Multinomial logistic regression trained with full-batch gradient steps.

    Parameters
    ----------
    n_classes:
        Number of output classes.  Fixed up front so a model trained on a
        subset missing some class still produces probabilities for all
        classes.
    l2:
        L2 regularization strength applied to the weight matrix (not the
        bias).
    random_state:
        Controls weight initialization.
    """

    def __init__(
        self,
        n_classes: int,
        l2: float = 1e-4,
        random_state: RandomState = None,
    ) -> None:
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self.l2 = check_non_negative(l2, "l2")
        self._rng = as_generator(random_state)
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    # -- parameter plumbing used by the training loop -----------------------
    def initialize(self, n_features: int) -> None:
        """(Re-)initialize parameters for inputs of width ``n_features``."""
        scale = 1.0 / np.sqrt(max(n_features, 1))
        self.weights = self._rng.normal(0.0, scale, size=(n_features, self.n_classes))
        self.bias = np.zeros(self.n_classes, dtype=np.float64)

    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`initialize` (or training) has been called."""
        return self.weights is not None

    def parameters(self) -> list[np.ndarray]:
        """Return the trainable parameter arrays (views, not copies)."""
        if self.weights is None or self.bias is None:
            raise ConfigurationError("model is not initialized")
        return [self.weights, self.bias]

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Hold ``params`` (laid out as :meth:`parameters` returns them)."""
        self.weights, self.bias = params

    def gradients(self, features: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
        """Return gradients of the regularized loss for a mini-batch.

        Leading axes are model axes: with ``(m, d, k)`` weights, ``(m, k)``
        bias, ``(m, n, d)`` features and ``(m, n)`` labels this is the
        gradient of ``m`` models at once, each row bitwise what the model
        alone would get (lock-step training relies on it).
        """
        if self.weights is None or self.bias is None:
            raise ConfigurationError("model is not initialized")
        probabilities = self.predict_proba(features)
        dlogits = cross_entropy_gradient(probabilities, labels)
        dweights = np.swapaxes(features, -1, -2) @ dlogits + self.l2 * self.weights
        dbias = dlogits.sum(axis=-2)
        return [dweights, dbias]

    # -- inference -----------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return raw class logits of shape ``(n, n_classes)``."""
        if self.weights is None or self.bias is None:
            raise ConfigurationError("model is not initialized")
        features = np.asarray(features, dtype=np.float64)
        return features @ self.weights + self.bias[..., None, :]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return class probabilities of shape ``(n, n_classes)``."""
        return softmax(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Return the most likely class index per row."""
        return np.argmax(self.predict_proba(features), axis=1)

    def loss(self, dataset: Dataset) -> float:
        """Mean log loss of the model on ``dataset``."""
        if len(dataset) == 0:
            return 0.0
        return cross_entropy_loss(self.predict_proba(dataset.features), dataset.labels)

    def clone(self) -> "SoftmaxRegression":
        """Return an untrained copy with the same hyperparameters."""
        return SoftmaxRegression(
            n_classes=self.n_classes,
            l2=self.l2,
            random_state=self._rng.integers(0, 2**31 - 1),
        )


class LogisticRegression:
    """Binary logistic regression with an interface mirroring SoftmaxRegression.

    Provided for completeness (the paper's log-loss definition is stated for
    binary classification); internally it is a thin wrapper over a weight
    vector and scalar bias.
    """

    def __init__(self, l2: float = 1e-4, random_state: RandomState = None) -> None:
        self.l2 = check_non_negative(l2, "l2")
        self._rng = as_generator(random_state)
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0
        self.n_classes = 2

    def initialize(self, n_features: int) -> None:
        """(Re-)initialize parameters for inputs of width ``n_features``."""
        scale = 1.0 / np.sqrt(max(n_features, 1))
        self.weights = self._rng.normal(0.0, scale, size=n_features)
        self.bias = 0.0

    @property
    def is_initialized(self) -> bool:
        return self.weights is not None

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return the raw scores ``w.x + b``."""
        if self.weights is None:
            raise ConfigurationError("model is not initialized")
        features = np.asarray(features, dtype=np.float64)
        return features @ self.weights + self.bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return ``(n, 2)`` probabilities for the negative/positive classes."""
        positive = sigmoid(self.decision_function(features))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Return 0/1 predictions at the 0.5 threshold."""
        return (self.decision_function(features) >= 0.0).astype(np.int64)

    def fit(
        self,
        dataset: Dataset,
        epochs: int = 200,
        learning_rate: float = 0.5,
    ) -> "LogisticRegression":
        """Train with full-batch gradient descent; returns ``self``."""
        if len(dataset) == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        labels = dataset.labels
        if labels.min() < 0 or labels.max() > 1:
            raise ConfigurationError("LogisticRegression expects labels in {0, 1}")
        self.initialize(dataset.n_features)
        features = dataset.features
        y = labels.astype(np.float64)
        n = len(dataset)
        for _ in range(int(epochs)):
            probs = sigmoid(features @ self.weights + self.bias)
            error = probs - y
            grad_w = features.T @ error / n + self.l2 * self.weights
            grad_b = float(error.mean())
            self.weights -= learning_rate * grad_w
            self.bias -= learning_rate * grad_b
        return self

    def loss(self, dataset: Dataset) -> float:
        """Mean binary log loss on ``dataset``."""
        if len(dataset) == 0:
            return 0.0
        positive = self.predict_proba(dataset.features)[:, 1]
        return binary_cross_entropy_loss(positive, dataset.labels)


def one_hot_labels(dataset: Dataset, n_classes: int) -> np.ndarray:
    """Convenience wrapper returning the dataset labels one-hot encoded."""
    return one_hot(dataset.labels, n_classes)
