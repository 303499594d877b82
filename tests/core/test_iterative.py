"""Tests for Algorithm 1 (repro.core.iterative) driven by SliceTuner.run."""

from __future__ import annotations

from repro.acquisition.cost import EscalatingCost
from repro.acquisition.source import GeneratorDataSource
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.curves.estimator import CurveEstimationConfig


def make_tuner(
    sliced,
    source,
    fast_training,
    min_slice_size=0,
    max_iterations=10,
    lam=1.0,
    cost_model=None,
) -> SliceTuner:
    return SliceTuner(
        sliced,
        source,
        trainer_config=fast_training,
        curve_config=CurveEstimationConfig(n_points=3, n_repeats=1, min_fraction=0.3),
        cost_model=cost_model,
        config=SliceTunerConfig(
            lam=lam, min_slice_size=min_slice_size, max_iterations=max_iterations
        ),
        random_state=0,
    )


def run(tuner: SliceTuner, budget: float, strategy: str = "moderate"):
    return tuner.run(budget=budget, method=strategy, evaluate=False)


class TestIterativeAlgorithm:
    def test_budget_never_exceeded(self, tiny_sliced, tiny_source, fast_training):
        result = run(make_tuner(tiny_sliced, tiny_source, fast_training), 150)
        assert result.spent <= 150 + 1e-6

    def test_budget_mostly_spent(self, tiny_sliced, tiny_source, fast_training):
        result = run(make_tuner(tiny_sliced, tiny_source, fast_training), 150)
        assert result.spent >= 150 - 2 * max(tiny_sliced.costs())

    def test_slices_grow_by_acquired_amounts(
        self, tiny_sliced, tiny_source, fast_training
    ):
        initial_sizes = {name: tiny_sliced[name].size for name in tiny_sliced.names}
        result = run(make_tuner(tiny_sliced, tiny_source, fast_training), 120)
        for name in tiny_sliced.names:
            assert tiny_sliced[name].size == initial_sizes[name] + result.total_acquired[name]

    def test_multiple_iterations_performed(self, tiny_sliced, tiny_source, fast_training):
        tuner = make_tuner(tiny_sliced, tiny_source, fast_training)
        result = run(tuner, 200, strategy="conservative")
        assert result.n_iterations >= 2

    def test_conservative_uses_at_least_as_many_iterations_as_aggressive(
        self, tiny_task, fast_training
    ):
        iteration_counts = {}
        for strategy in ("conservative", "aggressive"):
            sliced = tiny_task.initial_sliced_dataset(
                {"slice_0": 20, "slice_1": 40, "slice_2": 80}, 50, random_state=0
            )
            source = GeneratorDataSource(tiny_task, random_state=1)
            result = run(make_tuner(sliced, source, fast_training), 300, strategy)
            iteration_counts[strategy] = result.n_iterations
        assert iteration_counts["conservative"] >= iteration_counts["aggressive"]

    def test_imbalance_ratio_change_limited_per_iteration(
        self, tiny_task, fast_training
    ):
        sliced = tiny_task.initial_sliced_dataset(
            {"slice_0": 20, "slice_1": 20, "slice_2": 20}, 50, random_state=0
        )
        source = GeneratorDataSource(tiny_task, random_state=1)
        tuner = make_tuner(sliced, source, fast_training)
        # The streaming session is the same driver SliceTuner.run drains.
        records = list(tuner.session().stream(budget=400, strategy="conservative"))
        assert records
        for record in records:
            if record.iteration == 0:
                continue  # the min-size top-up step is not limited
            assert (
                abs(record.imbalance_after - record.imbalance_before)
                <= record.limit + 0.05
            )

    def test_minimum_slice_size_enforced_first(self, tiny_task, fast_training):
        sliced = tiny_task.initial_sliced_dataset(
            {"slice_0": 5, "slice_1": 30, "slice_2": 30}, 50, random_state=0
        )
        source = GeneratorDataSource(tiny_task, random_state=1)
        tuner = make_tuner(sliced, source, fast_training, min_slice_size=20)
        result = run(tuner, 100)
        assert sliced["slice_0"].size >= 20
        # The top-up is recorded as iteration 0.
        assert result.iterations[0].iteration == 0
        assert result.iterations[0].requested.get("slice_0", 0) >= 15

    def test_max_iterations_respected(self, tiny_sliced, tiny_source, fast_training):
        tuner = make_tuner(tiny_sliced, tiny_source, fast_training, max_iterations=2)
        result = run(tuner, 500, strategy="conservative")
        main_iterations = [r for r in result.iterations if r.iteration > 0]
        assert len(main_iterations) <= 2

    def test_zero_budget_acquires_nothing(self, tiny_sliced, tiny_source, fast_training):
        result = run(make_tuner(tiny_sliced, tiny_source, fast_training), 0)
        assert result.spent == 0.0
        assert sum(result.total_acquired.values()) == 0

    def test_escalating_cost_model_recorded(self, tiny_sliced, tiny_source, fast_training):
        cost_model = EscalatingCost(
            {name: 1.0 for name in tiny_sliced.names}, escalation=0.2
        )
        tuner = make_tuner(
            tiny_sliced, tiny_source, fast_training, cost_model=cost_model
        )
        result = run(tuner, 100)
        assert result.spent <= 100 + 1e-6
        assert any(
            cost_model.batches_recorded(name) > 0 for name in tiny_sliced.names
        )

    def test_curve_parameters_recorded_per_iteration(
        self, tiny_sliced, tiny_source, fast_training
    ):
        result = run(make_tuner(tiny_sliced, tiny_source, fast_training), 100)
        main_iterations = [r for r in result.iterations if r.iteration > 0]
        assert main_iterations
        for record in main_iterations:
            assert set(record.curve_parameters) == set(tiny_sliced.names)
            for b, a in record.curve_parameters.values():
                assert b > 0 and a > 0

    def test_result_method_matches_strategy(self, tiny_sliced, tiny_source, fast_training):
        tuner = make_tuner(tiny_sliced, tiny_source, fast_training)
        result = run(tuner, 60, strategy="aggressive")
        assert result.method == "aggressive"
