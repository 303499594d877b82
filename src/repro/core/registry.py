"""String-keyed registry of acquisition strategies.

Every acquisition policy — the paper's One-shot and Iterative variants, the
allocation baselines, the rotting-bandit comparator, and any user-defined
policy — is registered here under one or more names.  The registry is what
:meth:`repro.core.tuner.SliceTuner.run`, the
:class:`~repro.core.session.TunerSession` streaming API, the CLI
(``--methods`` and the ``strategies`` subcommand), and the experiment runner
resolve method strings against.

Registering a custom strategy::

    from repro.core.registry import register_strategy
    from repro.core.strategy_api import AcquisitionStrategy

    @register_strategy("greedy_worst", description="all budget to the worst slice")
    class GreedyWorstSlice(AcquisitionStrategy):
        name = "greedy_worst"

        def propose(self, state, budget, lam):
            ...

After which ``tuner.run(budget, method="greedy_worst")`` and
``python -m repro.cli compare --methods greedy_worst ...`` just work.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.core.strategy_api import AcquisitionStrategy
from repro.utils.exceptions import ConfigurationError

#: A callable building a fresh strategy instance (a class or a factory).
StrategyFactory = Callable[..., AcquisitionStrategy]

_REGISTRY: dict[str, StrategyFactory] = {}
_PRIMARY: dict[str, str] = {}  # registry key -> primary name
_DESCRIPTIONS: dict[str, str] = {}  # primary name -> one-line description
_BUILTINS_LOADED = False
_BUILTINS_LOCK = threading.RLock()


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_strategy(
    name: str,
    *,
    aliases: Iterable[str] = (),
    description: str = "",
    overwrite: bool = False,
) -> Callable[[StrategyFactory], StrategyFactory]:
    """Class/function decorator registering an acquisition strategy.

    Parameters
    ----------
    name:
        Primary registry key (case-insensitive).
    aliases:
        Additional keys resolving to the same factory.
    description:
        One-line summary shown by ``available_strategies`` listings and the
        CLI ``strategies`` subcommand; defaults to the factory's first
        docstring line.
    overwrite:
        Allow replacing an existing registration (off by default so typos
        don't silently shadow built-ins).
    """
    keys = [_normalize(name), *(_normalize(alias) for alias in aliases)]

    def decorator(factory: StrategyFactory) -> StrategyFactory:
        for key in keys:
            if not overwrite and key in _REGISTRY:
                raise ConfigurationError(
                    f"strategy {key!r} is already registered; pass "
                    f"overwrite=True to replace it"
                )
        doc = description or (factory.__doc__ or "").strip().splitlines()[0:1]
        if isinstance(doc, list):
            doc = doc[0] if doc else ""
        for key in keys:
            _REGISTRY[key] = factory
            _PRIMARY[key] = keys[0]
        _DESCRIPTIONS[keys[0]] = doc
        return factory

    return decorator


def unregister_strategy(name: str) -> None:
    """Remove a registration (primarily for tests tearing down fixtures)."""
    key = _normalize(name)
    primary = _PRIMARY.get(key)
    for alias in [k for k, p in _PRIMARY.items() if p == primary]:
        _REGISTRY.pop(alias, None)
        _PRIMARY.pop(alias, None)
    _DESCRIPTIONS.pop(primary, None)


def _ensure_builtins() -> None:
    """Import the modules whose import side effects register the built-ins.

    The flag is set under a lock and only after the imports finish, so a
    concurrent first lookup waits for a full registry instead of seeing
    an empty one.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if not _BUILTINS_LOADED:
            # Imported lazily so the registry module itself stays cycle-free.
            import repro.bandit.rotting  # noqa: F401
            import repro.core.baselines  # noqa: F401
            import repro.core.iterative  # noqa: F401
            import repro.core.oneshot  # noqa: F401

            _BUILTINS_LOADED = True


def get_strategy(name: str, **kwargs) -> AcquisitionStrategy:
    """Instantiate the strategy registered under ``name``.

    Extra keyword arguments are forwarded to the strategy factory (e.g.
    ``get_strategy("bandit", batch_size=25)``).  Raises
    :class:`~repro.utils.exceptions.ConfigurationError` for unknown names.
    """
    _ensure_builtins()
    key = _normalize(name)
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown strategy {name!r}; registered strategies: "
            f"{', '.join(available_strategies())}"
        )
    strategy = factory(**kwargs)
    if not isinstance(strategy, AcquisitionStrategy):
        raise ConfigurationError(
            f"factory for strategy {name!r} returned "
            f"{type(strategy).__name__}, not an AcquisitionStrategy"
        )
    return strategy


def available_strategies() -> tuple[str, ...]:
    """Sorted primary names of every registered strategy."""
    _ensure_builtins()
    return tuple(sorted(set(_PRIMARY.values())))


def strategy_descriptions() -> dict[str, str]:
    """Mapping of primary strategy name to its one-line description."""
    _ensure_builtins()
    return {name: _DESCRIPTIONS.get(name, "") for name in available_strategies()}


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered strategy."""
    _ensure_builtins()
    return _normalize(name) in _REGISTRY
