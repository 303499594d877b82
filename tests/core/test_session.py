"""Tests for repro.core.session (the streaming TunerSession API)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.source import GeneratorDataSource, PoolDataSource
from repro.core.tuner import SliceTuner, SliceTunerConfig
from repro.utils.exceptions import ConfigurationError


def make_tuner(task, fast_training, fast_curves, **config_kwargs):
    """One deterministically seeded tuner on a fresh dataset instance."""
    config_kwargs.setdefault("evaluation_trials", 1)
    config_kwargs.setdefault("max_iterations", 4)
    sliced = task.initial_sliced_dataset(30, 50, random_state=0)
    source = GeneratorDataSource(task, random_state=1)
    return SliceTuner(
        sliced,
        source,
        trainer_config=fast_training,
        curve_config=fast_curves,
        config=SliceTunerConfig(**config_kwargs),
        random_state=0,
    )


class TestStreamMatchesRun:
    @pytest.mark.parametrize("strategy", ["uniform", "oneshot", "moderate", "bandit"])
    def test_stream_result_identical_to_batch_run(
        self, tiny_task, fast_training, fast_curves, strategy
    ):
        batch = make_tuner(tiny_task, fast_training, fast_curves)
        result = batch.run(budget=60, method=strategy, evaluate=False)

        streaming = make_tuner(tiny_task, fast_training, fast_curves)
        session = streaming.session()
        records = list(session.stream(budget=60, strategy=strategy))

        assert records == result.iterations
        assert session.result().to_json() == result.to_json()

    def test_stream_yields_records_incrementally(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        seen = []
        for record in session.stream(budget=60, strategy="moderate"):
            seen.append(record.iteration)
            assert session.result().n_iterations == len(seen)
        assert seen == sorted(seen)


class TestHooksAndEarlyStops:
    def test_hooks_fire_per_record(self, tiny_task, fast_training, fast_curves):
        acquired, iterated = [], []
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session(
            on_acquire=acquired.append, on_iteration=iterated.append
        )
        records = list(session.stream(budget=60, strategy="moderate"))
        assert acquired == records
        assert iterated == records

    def test_evaluate_hook_fires_around_run(
        self, tiny_task, fast_training, fast_curves
    ):
        stages = []
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session(
            on_evaluate=lambda stage, report: stages.append(stage)
        )
        result = session.run(budget=60, strategy="uniform", evaluate=True)
        assert stages == ["initial", "final"]
        assert result.initial_report is not None
        assert result.final_report is not None

    def test_unknown_hook_event_rejected(
        self, tiny_task, fast_training, fast_curves
    ):
        session = make_tuner(tiny_task, fast_training, fast_curves).session()
        with pytest.raises(ConfigurationError):
            session.add_hook("teardown", lambda record: None)

    def test_stop_when_ends_stream(self, tiny_task, fast_training, fast_curves):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        records = list(
            session.stream(
                budget=60, strategy="moderate", stop_when=lambda record: True
            )
        )
        assert len(records) == 1
        # The partial result reflects exactly what was acquired.
        assert session.result().spent == pytest.approx(records[0].spent)

    def test_add_early_stop_applies_to_later_streams(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session().add_early_stop(lambda record: True)
        records = list(session.stream(budget=60, strategy="moderate"))
        assert len(records) == 1

    def test_each_stream_keeps_its_own_run_state(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        # Starting a second stream must not redirect the first generator's
        # bookkeeping onto the second run's ledger/result.
        first = session.stream(budget=30, strategy="uniform")
        second = session.stream(budget=60, strategy="uniform")
        record_a = next(first)
        record_b = next(second)
        assert record_a.spent <= 30 + 1e-6
        assert record_b.spent <= 60 + 1e-6
        # The session-level handle points at the most recently started run.
        assert session.result().budget == 60.0
        assert session.result().iterations == [record_b]


class TestCheckpointing:
    def test_state_dict_round_trips_through_json(
        self, tiny_task, fast_training, fast_curves
    ):
        import json

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        stream = session.stream(budget=60, strategy="moderate")
        next(stream)
        checkpoint = json.loads(json.dumps(session.state_dict()))
        assert checkpoint["strategy"] == "moderate"
        assert checkpoint["spent"] > 0

    def test_pause_and_resume_matches_uninterrupted_run(
        self, tiny_task, fast_training, fast_curves
    ):
        continuous = make_tuner(tiny_task, fast_training, fast_curves)
        expected = continuous.run(budget=60, method="moderate", evaluate=False)

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        first = tuner.session()
        stream = first.stream(budget=60, strategy="moderate")
        next(stream)  # acquire one batch, then pause
        checkpoint = first.state_dict()

        second = tuner.session()
        second.load_state_dict(checkpoint)
        remaining = list(second.resume())
        result = second.result()

        assert result.n_iterations == expected.n_iterations
        assert len(remaining) == expected.n_iterations - 1
        assert result.to_json() == expected.to_json()

    def test_json_round_trip_resume_matches_uninterrupted_everywhere(
        self, tiny_task, fast_training, fast_curves
    ):
        """state_dict -> json -> load_state_dict -> resume() reproduces the
        uninterrupted result at *every* interrupt point of the run."""
        import json

        continuous = make_tuner(tiny_task, fast_training, fast_curves)
        expected = continuous.run(budget=90, method="moderate", evaluate=False)
        assert expected.n_iterations >= 2

        for interrupt_after in range(1, expected.n_iterations + 1):
            tuner = make_tuner(tiny_task, fast_training, fast_curves)
            session = tuner.session()
            stream = session.stream(budget=90, strategy="moderate")
            for _ in range(interrupt_after):
                next(stream)
            checkpoint = json.loads(json.dumps(session.state_dict()))

            restored = tuner.session()
            restored.load_state_dict(checkpoint)
            list(restored.resume())
            assert restored.result().to_json() == expected.to_json(), (
                f"diverged when interrupted after iteration {interrupt_after}"
            )

    def test_round_trip_at_mid_iteration_event_boundary(
        self, tiny_task, fast_training, fast_curves
    ):
        """Interrupting between a FulfillmentEvent and its IterationEvent
        (the finest-grained interrupt point stream_events exposes) still
        checkpoints a state that resumes to the uninterrupted result."""
        import json

        from repro.core.session import FulfillmentEvent

        continuous = make_tuner(tiny_task, fast_training, fast_curves)
        expected = continuous.run(budget=90, method="moderate", evaluate=False)

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        events = session.stream_events(budget=90, strategy="moderate")
        for event in events:
            if isinstance(event, FulfillmentEvent):
                break  # the batch landed; its IterationEvent is still pending
        checkpoint = json.loads(json.dumps(session.state_dict()))

        restored = tuner.session()
        restored.load_state_dict(checkpoint)
        list(restored.resume())
        assert restored.result().to_json() == expected.to_json()

    def test_resume_without_state_rejected(
        self, tiny_task, fast_training, fast_curves
    ):
        session = make_tuner(tiny_task, fast_training, fast_curves).session()
        with pytest.raises(ConfigurationError):
            session.resume()
        with pytest.raises(ConfigurationError):
            session.result()

    def test_bad_checkpoint_version_rejected(
        self, tiny_task, fast_training, fast_curves
    ):
        session = make_tuner(tiny_task, fast_training, fast_curves).session()
        with pytest.raises(ConfigurationError):
            session.load_state_dict({"version": 99})

    def test_unregistered_strategy_checkpoint_restores_with_instance(
        self, tiny_task, fast_training, fast_curves
    ):
        from repro.core.plan import AcquisitionPlan
        from repro.core.strategy_api import AcquisitionStrategy

        class OnlySecondSlice(AcquisitionStrategy):
            name = "only_second_slice"
            is_iterative = False
            uses_lam = False

            def propose(self, state, budget, lam):
                name = state.sliced.names[1]
                cost = state.cost_model.cost(name)
                count = int(budget // cost)
                return AcquisitionPlan(
                    counts={name: count}, expected_cost=count * cost
                )

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        list(session.stream(budget=24, strategy=OnlySecondSlice()))
        checkpoint = session.state_dict()

        restored = tuner.session()
        # The name is not in the registry, so an instance must be supplied.
        with pytest.raises(ConfigurationError):
            restored.load_state_dict(checkpoint)
        restored.load_state_dict(checkpoint, strategy=OnlySecondSlice())
        assert restored.result().method == "only_second_slice"

    def test_checkpoint_strategy_name_mismatch_rejected(
        self, tiny_task, fast_training, fast_curves
    ):
        from repro.core.registry import get_strategy

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        session = tuner.session()
        stream = session.stream(budget=30, strategy="moderate")
        next(stream)
        checkpoint = session.state_dict()
        with pytest.raises(ConfigurationError):
            tuner.session().load_state_dict(
                checkpoint, strategy=get_strategy("uniform")
            )


class TestDeliveryAccounting:
    def test_exhausted_pool_charges_only_delivered(
        self, tiny_task, fast_training, fast_curves
    ):
        sliced = tiny_task.initial_sliced_dataset(30, 50, random_state=0)
        # slice_0's reserve pool runs dry after 5 examples.
        pools = {
            "slice_0": tiny_task.generate("slice_0", 5, random_state=2),
            "slice_1": tiny_task.generate("slice_1", 200, random_state=3),
            "slice_2": tiny_task.generate("slice_2", 200, random_state=4),
        }
        source = PoolDataSource(pools, random_state=5)
        tuner = SliceTuner(
            sliced,
            source,
            trainer_config=fast_training,
            curve_config=fast_curves,
            config=SliceTunerConfig(evaluation_trials=1),
            random_state=0,
        )
        result = tuner.run(budget=90, method="uniform", evaluate=False)

        assert result.total_acquired["slice_0"] == 5
        costs = {name: sliced[name].cost for name in sliced.names}
        delivered_cost = sum(
            costs[name] * count for name, count in result.total_acquired.items()
        )
        # The ledger charged for delivered examples only — no phantom spend.
        assert result.spent == pytest.approx(delivered_cost)

    def test_requested_records_what_was_asked(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        result = tuner.run(budget=60, method="uniform", evaluate=False)
        record = result.iterations[0]
        assert set(record.requested) == set(tuner.sliced.names)


class TestEvaluateReproducibility:
    def test_repeated_evaluate_agrees_despite_rng_consumption(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        first = tuner.evaluate()
        # Consume a large chunk of the tuner's main RNG stream in between.
        tuner._rng.integers(0, 1000, size=10_000)
        tuner.estimate_curves()
        second = tuner.evaluate()
        assert second.loss == pytest.approx(first.loss)
        assert second.slice_losses == pytest.approx(first.slice_losses)

    def test_same_seed_same_evaluation(self, tiny_task, fast_training, fast_curves):
        a = make_tuner(tiny_task, fast_training, fast_curves).evaluate()
        b = make_tuner(tiny_task, fast_training, fast_curves).evaluate()
        assert a.loss == pytest.approx(b.loss)

    def test_multi_trial_average_is_stable(
        self, tiny_task, fast_training, fast_curves
    ):
        tuner = make_tuner(
            tiny_task, fast_training, fast_curves, evaluation_trials=3
        )
        first = tuner.evaluate()
        second = tuner.evaluate()
        assert np.isfinite(first.loss)
        assert second.loss == pytest.approx(first.loss)

class TestReferenceCycles:
    def test_finished_session_is_freed_without_the_cycle_collector(
        self, tiny_task, fast_training, fast_curves
    ):
        # A session caught in a reference cycle keeps its run's datasets
        # alive until the cyclic collector next runs, which raises peak
        # memory when runs are fast and allocate little.
        import gc
        import weakref

        tuner = make_tuner(tiny_task, fast_training, fast_curves)
        fulfilled = []
        gc.disable()
        try:
            session = tuner.session(on_fulfillment=fulfilled.append)
            session.run(budget=60, strategy="moderate", evaluate=False)
            freed = weakref.ref(session)
            del session
            assert freed() is None
        finally:
            gc.enable()
        assert fulfilled
