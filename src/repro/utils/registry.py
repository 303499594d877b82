"""One name-keyed table type for every pluggable kind of thing.

Strategies, discovery methods, data sources, alert rules, model factories,
tasks, executors and scenarios are each looked up by name through a
:class:`Registry`.  Every table follows the same rules:

* names ignore case and surrounding spaces, and must not be empty;
* an entry may have aliases, which resolve to its primary name;
* each primary name has a one-line description, defaulting to the first
  line of the entry's docstring;
* registering a taken name raises unless ``overwrite=True``;
* ``unregister`` removes a name together with all its aliases, and is a
  no-op for an unknown name;
* listings are the sorted primary names;
* an unknown name raises :class:`~repro.utils.exceptions.ConfigurationError`
  reading ``unknown <kind> '<name>'; registered: a, b, ...``.

A registry may name modules whose import registers its built-ins.  They
are imported on the first lookup, under the registry's lock, and the table
counts as loaded only once every import has finished, so concurrent first
lookups all see the full table.

Registering an entry::

    TOOLS = Registry("tool")

    @TOOLS.register("hammer", aliases=("mallet",), description="hits things")
    def hammer(): ...

    TOOLS.get("  Mallet ")    # -> hammer
    TOOLS.primary("MALLET")   # -> "hammer"
    TOOLS.descriptions()      # -> {"hammer": "hits things"}
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Generic, Iterable, TypeVar

from repro.utils.exceptions import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """A case-insensitive table of named entries with aliases and descriptions.

    Parameters
    ----------
    kind:
        What the entries are, as it reads in messages (``"strategy"``).
    builtins:
        Modules imported on the first lookup; importing them registers the
        built-in entries.
    """

    def __init__(self, kind: str, *, builtins: Iterable[str] = ()) -> None:
        self.kind = kind
        self.builtins = tuple(builtins)
        self._loaded = not self.builtins
        self._lock = threading.RLock()
        self._entries: dict[str, T] = {}  # key -> entry
        self._primary: dict[str, str] = {}  # key -> primary name
        self._descriptions: dict[str, str] = {}  # primary name -> description

    @staticmethod
    def key(name: str) -> str:
        """The lookup key of ``name``: stripped and lower-cased."""
        return name.strip().lower()

    # -- registration ----------------------------------------------------------
    def add(
        self,
        name: str,
        entry: T,
        *,
        aliases: Iterable[str] = (),
        description: str | None = None,
        overwrite: bool = False,
    ) -> T:
        """Register ``entry`` under ``name`` and ``aliases``; returns ``entry``.

        ``description`` defaults to the first line of the entry's
        docstring.  A taken name raises unless ``overwrite`` is true, so a
        typo cannot silently shadow a built-in.
        """
        # No lock here: built-in modules register while a first lookup holds
        # it, and a thread importing such a module directly must not wait on
        # that lookup, which may itself be waiting for the import.
        keys = [self.key(name), *(self.key(alias) for alias in aliases)]
        for key in keys:
            if not key:
                raise ConfigurationError(f"{self.kind} names must be non-empty")
            if not overwrite and key in self._entries:
                raise ConfigurationError(
                    f"{self.kind} {key!r} is already registered; pass "
                    f"overwrite=True to replace it"
                )
        if description is None:
            lines = (getattr(entry, "__doc__", None) or "").strip().splitlines()
            description = lines[0] if lines else ""
        for key in keys:
            self._entries[key] = entry
            self._primary[key] = keys[0]
        self._descriptions[keys[0]] = description
        return entry

    def register(
        self,
        name: str,
        *,
        aliases: Iterable[str] = (),
        description: str | None = None,
        overwrite: bool = False,
    ) -> Callable[[T], T]:
        """Decorator form of :meth:`add`."""

        def decorator(entry: T) -> T:
            return self.add(
                name, entry, aliases=aliases, description=description,
                overwrite=overwrite,
            )

        return decorator

    def unregister(self, name: str) -> None:
        """Remove ``name`` and every alias of it; unknown names are ignored."""
        self._load()
        primary = self._primary.get(self.key(name))
        if primary is None:
            return
        for key in [key for key, owner in self._primary.items() if owner == primary]:
            del self._entries[key], self._primary[key]
        self._descriptions.pop(primary, None)

    # -- lookup ----------------------------------------------------------------
    def _load(self) -> None:
        if self._loaded:
            return
        with self._lock:
            if not self._loaded:
                for module in self.builtins:
                    importlib.import_module(module)
                self._loaded = True

    def _resolve(self, name: str) -> str:
        self._load()
        key = self.key(name)
        if key not in self._entries:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names())}"
            )
        return key

    def get(self, name: str) -> T:
        """The entry registered under ``name`` (or one of its aliases)."""
        return self._entries[self._resolve(name)]

    def build(self, name: str, **kwargs: Any) -> Any:
        """Call the entry registered under ``name`` with ``kwargs``."""
        return self.get(name)(**kwargs)

    def primary(self, name: str) -> str:
        """The primary name ``name`` resolves to."""
        return self._primary[self._resolve(name)]

    def __contains__(self, name: str) -> bool:
        self._load()
        return self.key(name) in self._entries

    def name_of(self, entry: T) -> str | None:
        """The primary name ``entry`` is registered under, or ``None``."""
        self._load()
        for key, registered in self._entries.items():
            if registered is entry:
                return self._primary[key]
        return None

    def names(self) -> tuple[str, ...]:
        """Sorted primary names of every entry."""
        self._load()
        return tuple(sorted(set(self._primary.values())))

    def descriptions(self) -> dict[str, str]:
        """Mapping of primary name to its one-line description."""
        return {name: self._descriptions[name] for name in self.names()}
