"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package maps each public name to the module that defines it; the module
is imported on first attribute access, so importing one leaf module no
longer pays for its whole package (and ``import repro`` pays for none).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``'s ``__init__``.

    ``exports`` maps a public name to its module, relative to ``package``
    (``".tuner"``).  A resolved name is cached in the package namespace, so
    later lookups never reach ``__getattr__`` again.
    """

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
