"""Registry mapping dataset names to task builders.

The experiment harness and benchmarks refer to datasets by name
(``"fashion_like"``, ``"mixed_like"``, ``"faces_like"``, ``"adult_like"``);
this module resolves those names, so new synthetic tasks can be plugged in by
registering a builder.
"""

from __future__ import annotations

from typing import Callable

from repro.datasets.adult import adult_like_task
from repro.datasets.blueprints import SyntheticTask
from repro.datasets.faces import faces_like_task
from repro.datasets.fashion import fashion_like_task
from repro.datasets.mixed import mixed_like_task
from repro.utils.registry import Registry

#: Every registered task builder.
TASKS: Registry[Callable[..., SyntheticTask]] = Registry("task")
TASKS.add("fashion_like", fashion_like_task)
TASKS.add("mixed_like", mixed_like_task)
TASKS.add("faces_like", faces_like_task)
TASKS.add("adult_like", adult_like_task)

#: ``register_task(name, builder)``; raises if the name is already taken.
register_task = TASKS.add
available_tasks = TASKS.names
#: ``build_task(name, **kwargs)`` builds the task registered under ``name``.
build_task = TASKS.build
