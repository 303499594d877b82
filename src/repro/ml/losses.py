"""Numerically stable activations and loss functions.

The paper measures model accuracy with log loss (cross entropy); the same
quantity drives the learning curves, the optimizer objective, and the
unfairness metric, so a single well-tested implementation lives here.
"""

from __future__ import annotations

import numpy as np

#: Probabilities are clipped to [EPS, 1 - EPS] before taking logarithms.
EPS = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a ``(n, k)`` logit matrix.

    The maximum logit is subtracted per row before exponentiation to avoid
    overflow, which leaves the result unchanged mathematically.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid, stable for large positive/negative inputs."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Raise ``ValueError`` unless every label lies in ``[0, n_classes)``."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Encode integer labels as a ``(n, n_classes)`` one-hot matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    check_labels(labels, n_classes)
    encoded = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean multi-class log loss of predicted ``probabilities`` against ``labels``.

    Parameters
    ----------
    probabilities:
        Array of shape ``(n, k)`` with rows summing to one.
    labels:
        Integer class indices of shape ``(n,)``.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.shape[0] != labels.shape[0]:
        raise ValueError(
            f"probabilities has {probabilities.shape[0]} rows but labels has "
            f"{labels.shape[0]} entries"
        )
    if probabilities.shape[0] == 0:
        return 0.0
    clipped = np.clip(probabilities[np.arange(labels.shape[0]), labels], EPS, 1.0)
    return float(-np.mean(np.log(clipped)))


def binary_cross_entropy_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary log loss for probabilities of the positive class."""
    probabilities = np.asarray(probabilities, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if probabilities.shape[0] != labels.shape[0]:
        raise ValueError("probabilities and labels must have the same length")
    if probabilities.shape[0] == 0:
        return 0.0
    clipped = np.clip(probabilities, EPS, 1.0 - EPS)
    losses = -labels * np.log(clipped) - (1.0 - labels) * np.log(1.0 - clipped)
    return float(np.mean(losses))


def cross_entropy_gradient(
    probabilities: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Gradient of the mean cross entropy with respect to the logits.

    For softmax + cross entropy the gradient simplifies to
    ``(probabilities - one_hot(labels)) / n``.  Leading axes are batch axes
    (``(..., n, k)`` probabilities, ``(..., n)`` labels), so stacked models
    share this one formula.  Labels are not range-checked here: training
    checks them once per fit (:func:`check_labels`), not once per step.
    """
    n, k = probabilities.shape[-2:]
    grad = probabilities - (np.asarray(labels)[..., None] == np.arange(k))
    return grad / max(n, 1)
