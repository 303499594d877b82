"""Tests for repro.datasets.registry."""

from __future__ import annotations

import pytest

from repro.datasets.blueprints import SyntheticTask
from repro.datasets.registry import TASKS, available_tasks, build_task, register_task
from repro.utils.exceptions import ConfigurationError


class TestRegistry:
    def test_builtin_tasks_listed(self):
        names = available_tasks()
        for expected in ("fashion_like", "mixed_like", "faces_like", "adult_like"):
            assert expected in names

    @pytest.mark.parametrize("name", ["fashion_like", "adult_like"])
    def test_build_task_returns_task(self, name):
        task = build_task(name)
        assert isinstance(task, SyntheticTask)
        assert task.name == name

    def test_build_task_passes_kwargs(self):
        task = build_task("fashion_like", n_features=32)
        assert task.n_features == 32

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown task"):
            build_task("imagenet")

    def test_register_and_build_custom_task(self, tiny_task):
        register_task("custom_tiny_for_test", lambda: tiny_task)
        try:
            assert build_task("custom_tiny_for_test") is tiny_task
        finally:
            # Keep the registry clean for other tests.
            TASKS.unregister("custom_tiny_for_test")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_task("fashion_like", lambda: None)
