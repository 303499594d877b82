"""Named, picklable model factories.

Process-pool workers need to rebuild models from a pickled job, and the
result cache needs a *stable* identity for "which model family was this?".
Registering a factory under a name solves both: jobs can carry just the name
(always picklable), and fingerprints key on it.

Arbitrary callables still work everywhere the serial executor runs;
:func:`describe_factory` derives a best-effort stable name for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.utils.registry import Registry

#: A model factory maps the number of classes to a fresh, untrained model.
ModelFactory = Callable[[int], object]

#: Every registered model factory; the built-ins are registered below.
MODEL_FACTORIES: Registry[ModelFactory] = Registry("model factory")

register_model_factory = MODEL_FACTORIES.register
get_model_factory = MODEL_FACTORIES.get
available_model_factories = MODEL_FACTORIES.names


def describe_factory(factory: ModelFactory | None) -> str:
    """A stable, fingerprint-friendly name for a factory callable.

    Registered factories resolve to their registry name; plain functions to
    ``module.qualname``; dataclass instances and partials to their ``repr``
    (which encodes their configuration).  Closures fall back to their
    qualname — good enough to tell families apart, though two differently
    configured closures of one function would collide; register such
    factories to give them distinct names.
    """
    if factory is None:
        return "<none>"
    name = MODEL_FACTORIES.name_of(factory)
    if name is not None:
        return name
    if isinstance(factory, partial):
        return repr(factory)
    if hasattr(factory, "__qualname__"):
        module = getattr(factory, "__module__", "")
        return f"{module}.{factory.__qualname__}"
    # Instances of factory classes: repr encodes the configuration for
    # dataclasses; fall back to the type for everything else.
    representation = repr(factory)
    if representation.startswith("<"):
        return f"{type(factory).__module__}.{type(factory).__qualname__}"
    return representation


@register_model_factory("softmax", aliases=("linear", "default"))
def softmax_factory(n_classes: int) -> object:
    """Softmax regression — the default model family."""
    from repro.ml.linear import SoftmaxRegression

    return SoftmaxRegression(n_classes=n_classes, random_state=0)


@dataclass(frozen=True)
class MLPFactory:
    """Picklable factory building :class:`~repro.ml.mlp.MLPClassifier` models.

    Use this instead of a lambda when jobs must cross a process boundary::

        factory = MLPFactory(hidden_sizes=(32, 16))
        tuner = SliceTuner(sliced, source, model_factory=factory, ...)
    """

    hidden_sizes: tuple[int, ...] = (32,)
    l2: float = 1e-4
    random_state: int = 0

    def __call__(self, n_classes: int) -> object:
        from repro.ml.mlp import MLPClassifier

        return MLPClassifier(
            n_classes=n_classes,
            hidden_sizes=self.hidden_sizes,
            l2=self.l2,
            random_state=self.random_state,
        )


@register_model_factory("mlp")
def mlp_factory(n_classes: int) -> object:
    """Default MLP: one hidden layer of 32 units."""
    return MLPFactory()(n_classes)
