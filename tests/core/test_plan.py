"""Tests for repro.core.plan (result records)."""

from __future__ import annotations

import pytest

from repro.core.plan import AcquisitionPlan, IterationRecord, TuningResult
from repro.fairness.report import FairnessReport


class TestAcquisitionPlan:
    def test_totals_and_emptiness(self):
        plan = AcquisitionPlan(counts={"a": 10, "b": 0}, expected_cost=10.0)
        assert plan.total_examples == 10
        assert not plan.is_empty()
        empty = AcquisitionPlan(counts={"a": 0}, expected_cost=0.0)
        assert empty.is_empty()

    def test_to_text_lists_slices(self):
        plan = AcquisitionPlan(
            counts={"a": 10, "b": 5}, expected_cost=17.5, solver="oneshot/kkt"
        )
        text = plan.to_text()
        assert "a" in text and "b" in text
        assert "oneshot/kkt" in text
        assert "15" in text  # total examples


class TestIterationRecord:
    def test_defaults(self):
        record = IterationRecord(iteration=2)
        assert record.iteration == 2
        assert record.requested == {} and record.acquired == {}
        assert record.spent == 0.0


class TestTuningResult:
    def make_result(self) -> TuningResult:
        result = TuningResult(method="moderate", lam=1.0, budget=500.0)
        result.iterations = [IterationRecord(iteration=1), IterationRecord(iteration=2)]
        result.total_acquired = {"a": 120, "b": 30}
        result.spent = 150.0
        return result

    def test_n_iterations(self):
        assert self.make_result().n_iterations == 2

    def test_acquisitions_table_contains_summary(self):
        text = self.make_result().acquisitions_table()
        assert "method=moderate" in text
        assert "budget=500" in text
        assert "a" in text and "120" in text

    def test_reports_optional(self):
        result = self.make_result()
        assert result.initial_report is None and result.final_report is None
        result.final_report = FairnessReport(
            loss=0.4, slice_losses={"a": 0.3, "b": 0.5}, avg_eer=0.1, max_eer=0.1
        )
        assert result.final_report.loss == pytest.approx(0.4)


class TestSerialization:
    def make_result(self) -> TuningResult:
        result = TuningResult(method="moderate", lam=1.0, budget=500.0)
        result.iterations = [
            IterationRecord(
                iteration=1,
                requested={"a": 100, "b": 20},
                acquired={"a": 90, "b": 20},
                spent=110.0,
                limit=1.0,
                imbalance_before=3.0,
                imbalance_after=2.0,
                curve_parameters={"a": (1.5, 0.4), "b": (2.0, 0.3)},
            ),
            IterationRecord(iteration=2, acquired={"a": 30, "b": 10}, spent=40.0),
        ]
        result.total_acquired = {"a": 120, "b": 30}
        result.spent = 150.0
        result.final_report = FairnessReport(
            loss=0.4,
            slice_losses={"a": 0.3, "b": 0.5},
            avg_eer=0.1,
            max_eer=0.2,
            slice_sizes={"a": 220, "b": 130},
        )
        return result

    def test_json_round_trip(self):
        result = self.make_result()
        restored = TuningResult.from_json(result.to_json())
        assert restored == result
        # A second round trip is byte-stable.
        assert restored.to_json() == result.to_json()

    def test_record_round_trip_preserves_tuples(self):
        record = self.make_result().iterations[0]
        restored = IterationRecord.from_dict(record.to_dict())
        assert restored == record
        assert isinstance(restored.curve_parameters["a"], tuple)

    def test_missing_reports_round_trip_as_none(self):
        result = TuningResult(method="uniform", lam=0.0, budget=10.0)
        restored = TuningResult.from_json(result.to_json())
        assert restored.initial_report is None and restored.final_report is None
