"""Multi-layer perceptron classifier.

This is the stand-in for the paper's small convolutional networks (2-3 hidden
layers) and, with more/wider layers, for the ResNet-18 comparison in
Appendix B.  The implementation is a straightforward fully-connected network
with ReLU activations and a softmax output, trained by the one mini-batch
loop every model shares, :func:`repro.ml.train.fit_lockstep`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.losses import cross_entropy_gradient, cross_entropy_loss, softmax
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_non_negative, check_positive_int


class MLPClassifier:
    """Fully connected ReLU network with a softmax output layer.

    Parameters
    ----------
    n_classes:
        Number of output classes.
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(32, 16)``.  An empty tuple makes
        the model equivalent to softmax regression.
    l2:
        L2 regularization applied to all weight matrices.
    random_state:
        Controls weight initialization.
    """

    def __init__(
        self,
        n_classes: int,
        hidden_sizes: Sequence[int] = (32,),
        l2: float = 1e-4,
        random_state: RandomState = None,
    ) -> None:
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigurationError(
                f"hidden_sizes must all be positive, got {self.hidden_sizes}"
            )
        self.l2 = check_non_negative(l2, "l2")
        self._rng = as_generator(random_state)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []

    # -- parameter plumbing ---------------------------------------------------
    def initialize(self, n_features: int) -> None:
        """(Re-)initialize all layers with He-style scaling."""
        sizes = [int(n_features), *self.hidden_sizes, self.n_classes]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / max(fan_in, 1))
            self.weights.append(
                self._rng.normal(0.0, scale, size=(fan_in, fan_out))
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    @property
    def is_initialized(self) -> bool:
        """Whether the layer parameters exist."""
        return bool(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Return all trainable arrays (weights then biases, per layer)."""
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        params: list[np.ndarray] = []
        for weight, bias in zip(self.weights, self.biases):
            params.append(weight)
            params.append(bias)
        return params

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Hold ``params`` (laid out as :meth:`parameters` returns them)."""
        self.weights, self.biases = list(params[0::2]), list(params[1::2])

    # -- forward / backward ---------------------------------------------------
    def _forward(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Run the network, returning hidden activations and output logits."""
        activations = [np.asarray(features, dtype=np.float64)]
        current = activations[0]
        for weight, bias in zip(self.weights[:-1], self.biases[:-1]):
            current = np.maximum(current @ weight + bias[..., None, :], 0.0)
            activations.append(current)
        logits = current @ self.weights[-1] + self.biases[-1][..., None, :]
        return activations, logits

    def gradients(self, features: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
        """Backpropagate the regularized cross-entropy loss for a mini-batch.

        Leading axes are model axes, as in
        :meth:`repro.ml.linear.SoftmaxRegression.gradients`: with every
        layer stacked over ``m`` models, ``(m, n, d)`` features and
        ``(m, n)`` labels, each row is bitwise what the model alone gets.
        """
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        activations, logits = self._forward(features)
        probabilities = softmax(logits)
        delta = cross_entropy_gradient(probabilities, labels)

        weight_grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            weight_grads[layer] = (
                np.swapaxes(activations[layer], -1, -2) @ delta
                + self.l2 * self.weights[layer]
            )
            bias_grads[layer] = delta.sum(axis=-2)
            if layer > 0:
                delta = delta @ np.swapaxes(self.weights[layer], -1, -2)
                delta = delta * (activations[layer] > 0.0)

        grads: list[np.ndarray] = []
        for wg, bg in zip(weight_grads, bias_grads):
            grads.append(wg)
            grads.append(bg)
        return grads

    # -- inference -------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return raw class logits."""
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        _, logits = self._forward(features)
        return logits

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

    def clone(self) -> "MLPClassifier":
        """Return an untrained copy with the same hyperparameters."""
        return MLPClassifier(
            n_classes=self.n_classes,
            hidden_sizes=self.hidden_sizes,
            l2=self.l2,
            random_state=self._rng.integers(0, 2**31 - 1),
        )
