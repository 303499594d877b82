"""Start-up cost: what each entry point imports, and the lazy public API.

Every check runs in a fresh interpreter, because this test process has long
since imported numpy, scipy and every ``repro`` module.  The package
``__init__`` modules resolve their public names on first access (PEP 562),
scipy is imported only by the two curve fits of the curve-family ablation,
and each CLI handler imports its own subsystem; these tests pin all three
down.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaigns.store import SqliteStore
from repro.cli import main
from tests.analytics.conftest import fill_store

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent

#: Runs ``repro.cli`` as ``python -m`` would, then reports the exit code and
#: the names of the modules loaded as the last line of stdout.
CLI_PROBE = """
import json, runpy, sys
sys.argv = ["repro", *{argv!r}]
code = 0
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""

#: Every registry's listing, as one JSON object on stdout.
REGISTRIES = {
    "repro.core.registry": "available_strategies",
    "repro.acquisition.providers": "available_sources",
    "repro.slices.discovery": "available_discovery_methods",
    "repro.monitor.rules": "available_rules",
    "repro.engine.executor": "available_executors",
    "repro.datasets.registry": "available_tasks",
    "repro.experiments.scenarios": "list_scenarios",
}


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``src/`` and the repo root on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def roots(modules: set[str]) -> set[str]:
    """The top-level packages of ``modules``."""
    return {name.split(".")[0] for name in modules}


def within(modules: set[str], package: str) -> set[str]:
    """The modules of ``modules`` that are ``package`` or lie inside it."""
    return {name for name in modules if name == package or name.startswith(package + ".")}


def modules_loaded_by(statement: str) -> set[str]:
    """Names in ``sys.modules`` after ``statement``."""
    done = fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def loaded_by(statement: str) -> set[str]:
    """Top-level packages in ``sys.modules`` after ``statement``."""
    return roots(modules_loaded_by(statement))


def cli_modules(*argv: str) -> tuple[int, set[str], str]:
    """(exit code, modules loaded, stdout) of one CLI command."""
    lines = fresh(CLI_PROBE.format(argv=list(argv))).stdout.strip().splitlines()
    probe = json.loads(lines[-1])
    return probe["code"], set(probe["modules"]), "\n".join(lines[:-1])


def cli(*argv: str) -> tuple[int, set[str], str]:
    """(exit code, top-level packages loaded, stdout) of one CLI command."""
    code, modules, out = cli_modules(*argv)
    return code, roots(modules), out


def closed_port() -> int:
    """A local port that nothing listens on any more."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("startup") / "tiny.sqlite")
    with SqliteStore(path) as store:
        fill_store(store)
    return path


class TestImportBudget:
    @pytest.mark.parametrize("statement", ["import repro", "import repro.cli"])
    def test_imports_load_neither_numpy_nor_scipy(self, statement):
        loaded = loaded_by(statement)
        assert "scipy" not in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize(
        "argv, schema",
        [
            (("strategies", "--json"), "repro.strategies/1"),
            (("sources", "--json"), "repro.sources/1"),
        ],
    )
    def test_registry_listings_load_no_scipy(self, argv, schema):
        code, loaded, out = cli(*argv)
        assert code == 0
        assert json.loads(out)["schema"] == schema
        assert "scipy" not in loaded

    @pytest.mark.parametrize(
        "argv, schema",
        [
            (("report", "summary", "--json"), "repro.report/1"),
            (("monitor", "status", "--json"), "repro.monitor/1"),
            (("campaign", "list", "--json"), "repro.campaign.list/1"),
            (("campaign", "show", "c-alpha", "--json"), "repro.campaign.show/1"),
        ],
    )
    def test_store_readers_load_no_numpy(self, tiny_store, argv, schema):
        code, loaded, out = cli(*argv, "--store", tiny_store)
        assert code == 0
        assert json.loads(out)["schema"] == schema
        assert "numpy" not in loaded

    def test_remote_client_loads_no_numpy(self):
        # Nothing listens on the port any more: the client reports a usage error.
        code, loaded, _ = cli(
            "remote", "list", "--json", "--url", f"http://127.0.0.1:{closed_port()}",
            "--timeout", "5",
        )
        assert code == 2
        assert "numpy" not in loaded

    def test_run_still_works_and_loads_no_scipy(self):
        code, loaded, out = cli(
            "run", "--json", "--quiet", "--dataset", "adult_like",
            "--initial-size", "40", "--validation-size", "40", "--epochs", "5",
            "--curve-points", "3", "--budget", "120", "--method", "moderate",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro.run/1"
        assert payload["trainings_performed"] > 0
        assert "scipy" not in loaded

    def test_campaign_suite_loads_no_scipy(self):
        loaded = loaded_by(
            "from repro.experiments.runner import campaign_suite\n"
            "assert len(campaign_suite(seed=0)) == 3"
        )
        assert "scipy" not in loaded


class TestModuleBudget:
    """Module by module: each cold command loads only the layers it runs."""

    def test_import_cli_loads_no_telemetry(self):
        assert not within(modules_loaded_by("import repro.cli"), "repro.telemetry")

    @pytest.mark.parametrize(
        "argv",
        [
            ("campaign", "list", "--json"),
            ("report", "summary", "--json"),
            ("monitor", "status", "--json"),
        ],
    )
    def test_store_readers_load_no_telemetry(self, tiny_store, argv):
        code, modules, _ = cli_modules(*argv, "--store", tiny_store)
        assert code == 0
        assert not within(modules, "repro.telemetry")

    def test_remote_client_loads_neither_store_nor_stream_nor_telemetry(self):
        code, modules, _ = cli_modules(
            "remote", "list", "--json", "--url", f"http://127.0.0.1:{closed_port()}",
            "--timeout", "5",
        )
        assert code == 2
        assert "repro.serve.client" in modules
        for package in ("repro.campaigns.store", "repro.serve.stream", "repro.telemetry"):
            assert not within(modules, package), package

    def test_a_cold_traced_run_still_writes_its_trace(self, tmp_path):
        trace_dir = tmp_path / "trace"
        code, modules, out = cli_modules(
            "run", "--trace-out", str(trace_dir), "--json", "--quiet",
            "--dataset", "adult_like", "--initial-size", "40", "--validation-size", "40",
            "--epochs", "5", "--curve-points", "3", "--budget", "120", "--method", "moderate",
        )
        assert code == 0
        assert json.loads(out)["schema"] == "repro.run/1"
        assert "repro.telemetry" in modules
        assert (trace_dir / "spans.jsonl").stat().st_size > 0
        assert json.loads((trace_dir / "metrics.json").read_text())


class TestLazyPublicApi:
    def test_every_exported_name_resolves_to_its_definition(self):
        fresh(
            """
import importlib, importlib.util, pkgutil, repro

def defining(package, name):
    exports = getattr(importlib.import_module(package), "_EXPORTS", {})
    if name not in exports:
        return importlib.import_module(package)
    return defining(importlib.util.resolve_name(exports[name], package), name)

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]
assert "repro.slices.methods" in packages, packages
for package in packages:
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        assert value is vars(defining(package, name))[name], (package, name)
        assert name in dir(module), (package, name)
    namespace = {}
    exec(f"from {package} import *", namespace)
    missing = set(module.__all__) - set(namespace)
    assert not missing, (package, missing)
    try:
        module.no_such_name
    except AttributeError as error:
        assert repr(package) in str(error), error
    else:
        raise AssertionError(f"{package}.no_such_name resolved")
"""
        )

    def test_submodule_import_through_the_package_still_works(self):
        fresh("from repro.core import oneshot, tuner\nassert tuner.SliceTuner.__name__ == 'SliceTuner'")


class TestRegistriesPopulateThemselves:
    def test_listing_alone_equals_listing_after_full_import(self):
        listing = (
            "import importlib, json\n"
            f"registries = {REGISTRIES!r}\n"
            "print(json.dumps({m: list(getattr(importlib.import_module(m), f)())"
            " for m, f in registries.items()}))"
        )
        alone = {}
        for module, function in REGISTRIES.items():
            done = fresh(
                f"import json\nfrom {module} import {function}\n"
                f"print(json.dumps(list({function}())))"
            )
            alone[module] = json.loads(done.stdout)
        everything = json.loads(fresh("from repro import *\n" + listing).stdout)
        assert alone == everything
        assert all(alone.values())

    @pytest.mark.parametrize(
        "flag, module, function",
        [
            ("--dataset", "repro.datasets.registry", "available_tasks"),
            ("--scenario", "repro.experiments.scenarios", "list_scenarios"),
            ("--executor", "repro.engine.executor", "available_executors"),
        ],
    )
    def test_unknown_choice_exits_2_naming_the_valid_values(
        self, capsys, flag, module, function
    ):
        with pytest.raises(SystemExit) as exit:
            main(["run", flag, "no-such-value"])
        assert exit.value.code == 2
        error = capsys.readouterr().err
        assert "no-such-value" in error
        registry = __import__(module, fromlist=[function])
        for name in getattr(registry, function)():
            assert name in error
