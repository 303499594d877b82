"""The shared name rules of every registry (repro.utils.registry.Registry)."""

from __future__ import annotations

from importlib import import_module

import pytest

from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry

#: (module, registry attribute, public listing function) for every name table.
REGISTRIES = [
    ("repro.core.registry", "STRATEGIES", "available_strategies"),
    ("repro.slices.discovery", "DISCOVERY_METHODS", "available_discovery_methods"),
    ("repro.acquisition.providers", "SOURCES", "available_sources"),
    ("repro.monitor.rules", "RULES", "available_rules"),
    ("repro.engine.factories", "MODEL_FACTORIES", "available_model_factories"),
    ("repro.datasets.registry", "TASKS", "available_tasks"),
    ("repro.engine.executor", "EXECUTORS", "available_executors"),
    ("repro.experiments.scenarios", "SCENARIOS", "list_scenarios"),
]


def _entry():
    """A stand-in entry; the registry never inspects what it stores."""


@pytest.fixture(params=REGISTRIES, ids=[attribute for _, attribute, _ in REGISTRIES])
def registry(request):
    module, attribute, _ = request.param
    table = getattr(import_module(module), attribute)
    assert isinstance(table, Registry)
    yield table
    table.unregister("contract_probe")
    table.unregister("contract_other")


@pytest.mark.parametrize("module, attribute, listing", REGISTRIES)
def test_public_listing_is_the_registry_listing(module, attribute, listing):
    namespace = import_module(module)
    assert getattr(namespace, listing)() == getattr(namespace, attribute).names()


def test_lookup_ignores_case_and_spaces_and_resolves_aliases(registry):
    registry.add("Contract_Probe", _entry, aliases=("contract_alias",), description="probe")
    assert registry.get("  CONTRACT_probe ") is _entry
    assert registry.get("Contract_Alias") is _entry
    assert registry.primary(" contract_ALIAS") == "contract_probe"
    assert "CONTRACT_ALIAS " in registry
    assert registry.name_of(_entry) == "contract_probe"
    assert registry.descriptions()["contract_probe"] == "probe"


def test_description_defaults_to_the_first_docstring_line(registry):
    registry.add("contract_probe", _entry)
    assert registry.descriptions()["contract_probe"] == _entry.__doc__


def test_duplicates_are_rejected_unless_overwrite(registry):
    registry.add("contract_probe", _entry, aliases=("contract_alias",))
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.add("CONTRACT_PROBE", print)
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.add("contract_other", print, aliases=("contract_alias",))
    assert "contract_other" not in registry
    registry.add("contract_probe", print, overwrite=True)
    assert registry.get("contract_probe") is print


@pytest.mark.parametrize("name, aliases", [("", ()), ("   ", ()), ("contract_probe", (" ",))])
def test_empty_names_are_rejected(registry, name, aliases):
    before = registry.names()
    with pytest.raises(ConfigurationError, match="non-empty"):
        registry.add(name, _entry, aliases=aliases)
    assert registry.names() == before


def test_unknown_name_error_names_every_primary_name(registry):
    registry.add("contract_probe", _entry, aliases=("contract_alias",))
    with pytest.raises(ConfigurationError) as error:
        registry.get("no-such-name")
    names = registry.names()
    assert str(error.value) == (
        f"unknown {registry.kind} 'no-such-name'; registered: {', '.join(names)}"
    )
    assert "contract_probe" in names and "contract_alias" not in names
    with pytest.raises(ConfigurationError, match="no-such-name"):
        registry.primary("no-such-name")
    assert "no-such-name" not in registry


def test_unregister_removes_every_alias_and_ignores_unknown_names(registry):
    before = registry.names()
    registry.add("contract_probe", _entry, aliases=("contract_alias", "contract_third"))
    registry.unregister("CONTRACT_ALIAS")
    for name in ("contract_probe", "contract_alias", "contract_third"):
        assert name not in registry
    assert registry.names() == before
    assert registry.name_of(_entry) is None
    registry.unregister("contract_probe")
    registry.unregister("no-such-name")
    assert registry.names() == before


def test_listings_are_sorted_primary_names(registry):
    registry.add("contract_probe", _entry, aliases=("contract_alias",))
    names = registry.names()
    assert names == tuple(sorted(names))
    assert len(set(names)) == len(names)
    assert list(registry.descriptions()) == list(names)


@pytest.mark.parametrize(
    "module, function",
    [
        ("repro.core.registry", "register_strategy"),
        ("repro.acquisition.providers", "register_source"),
        ("repro.engine.factories", "register_model_factory"),
    ],
)
def test_public_decorators_reject_empty_names(module, function):
    register = getattr(import_module(module), function)
    with pytest.raises(ConfigurationError, match="non-empty"):
        register("  ")(_entry)


def test_register_task_rejects_an_empty_name():
    from repro.datasets.registry import register_task

    with pytest.raises(ConfigurationError, match="non-empty"):
        register_task("", _entry)
