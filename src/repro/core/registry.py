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

from typing import Callable

from repro.core.strategy_api import AcquisitionStrategy
from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry

#: A callable building a fresh strategy instance (a class or a factory).
StrategyFactory = Callable[..., AcquisitionStrategy]

#: Every registered strategy; the built-ins register themselves on import.
STRATEGIES: Registry[StrategyFactory] = Registry(
    "strategy",
    builtins=(
        "repro.bandit.rotting",
        "repro.core.baselines",
        "repro.core.iterative",
        "repro.core.oneshot",
    ),
)

register_strategy = STRATEGIES.register
unregister_strategy = STRATEGIES.unregister
available_strategies = STRATEGIES.names
strategy_descriptions = STRATEGIES.descriptions
is_registered = STRATEGIES.__contains__


def get_strategy(name: str, **kwargs) -> AcquisitionStrategy:
    """Instantiate the strategy registered under ``name``.

    Extra keyword arguments are forwarded to the strategy factory (e.g.
    ``get_strategy("bandit", batch_size=25)``).  Raises
    :class:`~repro.utils.exceptions.ConfigurationError` for unknown names.
    """
    strategy = STRATEGIES.build(name, **kwargs)
    if not isinstance(strategy, AcquisitionStrategy):
        raise ConfigurationError(
            f"factory for strategy {name!r} returned "
            f"{type(strategy).__name__}, not an AcquisitionStrategy"
        )
    return strategy
