"""Tests for repro.core.imbalance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.imbalance import get_change_ratio, imbalance_ratio
from repro.utils.exceptions import OptimizationError


class TestGetChangeRatio:
    def test_paper_worked_example(self):
        """Section 5.2 example: sizes [10,10], num [10,40], target 2 -> x = 0.5."""
        x = get_change_ratio([10, 10], [10, 40], target_ratio=2.0)
        assert x == 0.5
        assert imbalance_ratio(np.array([10, 10]) + x * np.array([10, 40])) == 2.0

    def test_target_equal_to_current_ratio_gives_zero(self):
        assert get_change_ratio([10, 20], [5, 5], target_ratio=2.0) == pytest.approx(0.0)

    def test_target_equal_to_full_allocation_gives_one(self):
        sizes, num = np.array([10.0, 10.0]), np.array([0.0, 30.0])
        full_ratio = imbalance_ratio(sizes + num)
        assert get_change_ratio(sizes, num, full_ratio) == pytest.approx(1.0)

    def test_decreasing_imbalance_direction(self):
        # Acquiring mostly for the small slice reduces the ratio; the target
        # lies between the full-allocation ratio and the current one.
        sizes, num = [10, 100], [90, 0]
        current = imbalance_ratio(sizes)  # 10
        after = imbalance_ratio(np.array(sizes) + np.array(num))  # 1
        target = 5.0
        x = get_change_ratio(sizes, num, target)
        assert 0 < x < 1
        assert imbalance_ratio(np.array(sizes) + x * np.array(num)) == pytest.approx(
            target, abs=1e-12
        )
        assert after < target < current

    def test_result_satisfies_target_generically(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sizes = rng.integers(10, 200, size=4).astype(float)
            num = rng.integers(0, 150, size=4).astype(float)
            current = imbalance_ratio(sizes)
            after = imbalance_ratio(sizes + num)
            if abs(after - current) < 1e-9:
                continue
            target = current + 0.5 * (after - current)
            x = get_change_ratio(sizes, num, target)
            assert 0.0 <= x <= 1.0
            assert imbalance_ratio(sizes + x * num) == pytest.approx(target, abs=1e-12)

    def test_unbracketed_target_rejected(self):
        with pytest.raises(OptimizationError):
            get_change_ratio([10, 10], [10, 40], target_ratio=100.0)

    def test_zero_sizes_rejected(self):
        with pytest.raises(OptimizationError):
            get_change_ratio([0, 10], [5, 5], target_ratio=2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(OptimizationError):
            get_change_ratio([10, 10], [5], target_ratio=2.0)

    def test_target_below_one_rejected(self):
        with pytest.raises(OptimizationError):
            get_change_ratio([10, 10], [5, 5], target_ratio=0.5)
