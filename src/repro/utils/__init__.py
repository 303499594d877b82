"""Shared utilities: randomness, validation helpers, text rendering.

These helpers are deliberately small and dependency-free so every other
subpackage (ml substrate, curves, core optimizer, experiments) can rely on
them without circular imports.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ReproError": ".exceptions",
    "ConfigurationError": ".exceptions",
    "SlicingError": ".exceptions",
    "FittingError": ".exceptions",
    "OptimizationError": ".exceptions",
    "BudgetError": ".exceptions",
    "RandomState": ".rng",
    "as_generator": ".rng",
    "spawn_generators": ".rng",
    "format_table": ".tables",
    "format_series": ".tables",
    "check_positive": ".validation",
    "check_non_negative": ".validation",
    "check_probability": ".validation",
    "check_in_range": ".validation",
    "check_length_match": ".validation",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
