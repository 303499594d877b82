"""Concurrent first lookups in every registry with lazily imported built-ins.

Such a registry fills itself on first use by importing the built-in
modules.  Many threads making that first lookup at once must all see the
full registry.  Each check runs in a fresh interpreter, because in this test
process earlier tests have long since filled every registry.  CI also runs
this file on its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro
from tests.utils.test_registry import REGISTRIES

SRC = Path(repro.__file__).resolve().parent.parent

#: Releases ``threads`` threads at once into the registry's first lookup and
#: prints the errors they met as one JSON list.
PROBE = """
import json, threading
from {module} import {lookup} as lookup

threads = {threads}
barrier = threading.Barrier(threads)
errors = []

def first_lookup():
    barrier.wait()
    try:
        lookup({name!r})
    except Exception as exc:
        errors.append(repr(exc))

workers = [threading.Thread(target=first_lookup) for _ in range(threads)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
print(json.dumps(errors))
"""


#: (module, public lookup, a built-in name) for every registry whose built-ins
#: are imported on first lookup.
LAZY = [
    ("repro.core.registry", "get_strategy", "moderate"),
    ("repro.slices.discovery", "get_discovery_method", "kmeans"),
]


def test_every_lazily_filled_registry_is_raced():
    lazy = {
        module for module, attribute, _ in REGISTRIES
        if getattr(import_module(module), attribute).builtins
    }
    assert lazy == {module for module, _, _ in LAZY}


@pytest.mark.parametrize(("module", "lookup", "name"), LAZY)
def test_concurrent_first_lookup_sees_every_builtin(module, lookup, name):
    code = PROBE.format(module=module, lookup=lookup, name=name, threads=8)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
