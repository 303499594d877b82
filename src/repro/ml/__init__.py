"""Machine-learning substrate built on NumPy.

The paper trains Keras CNNs; this reproduction substitutes NumPy
implementations of softmax regression and multi-layer perceptrons (see
``DESIGN.md``).  Slice Tuner only consumes per-slice validation losses as a
function of training-set size, so any classifier with the familiar power-law
loss decay exercises the framework's code paths faithfully.

Public entry points:

* :class:`~repro.ml.data.Dataset` — immutable (features, labels) container.
* :class:`~repro.ml.linear.SoftmaxRegression` and
  :class:`~repro.ml.mlp.MLPClassifier` — the classifiers.
* :class:`~repro.ml.train.Trainer` / :class:`~repro.ml.train.TrainingConfig`
  — mini-batch training, through the one stacked loop
  :func:`~repro.ml.train.fit_lockstep`.
* :func:`~repro.ml.metrics.log_loss`, :func:`~repro.ml.metrics.accuracy`,
  :func:`~repro.ml.metrics.per_slice_losses` — evaluation helpers.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Dataset": ".data",
    "train_validation_split": ".data",
    "LogisticRegression": ".linear",
    "SoftmaxRegression": ".linear",
    "MLPClassifier": ".mlp",
    "softmax": ".losses",
    "sigmoid": ".losses",
    "cross_entropy_loss": ".losses",
    "log_loss": ".metrics",
    "accuracy": ".metrics",
    "per_slice_losses": ".metrics",
    "Optimizer": ".optim",
    "SGD": ".optim",
    "Momentum": ".optim",
    "Adam": ".optim",
    "StandardScaler": ".preprocessing",
    "OneHotEncoder": ".preprocessing",
    "Trainer": ".train",
    "TrainingConfig": ".train",
    "TrainingResult": ".train",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
