"""Experiment harness reproducing the paper's evaluation (Section 6).

* :mod:`~repro.experiments.config` — experiment configuration (dataset,
  scenario, budget, methods, trials, speed knobs).
* :mod:`~repro.experiments.scenarios` — the paper's settings: Basic,
  Bad-for-Uniform, Bad-for-Water-filling, exponential initial sizes, and the
  small-slice (unreliable curves) setting.
* :mod:`~repro.experiments.runner` — runs methods over trials and aggregates
  loss / Avg. EER / Max. EER / iterations / per-slice acquisitions.
* :mod:`~repro.experiments.influence` — the Figure 7 influence experiment.
* :mod:`~repro.experiments.reporting` — renders results as the paper's
  tables and figure series.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentConfig": ".config",
    "fast_training_config": ".config",
    "Scenario": ".scenarios",
    "build_scenario": ".scenarios",
    "list_scenarios": ".scenarios",
    "MethodOutcome": ".runner",
    "MethodAggregate": ".runner",
    "run_method": ".runner",
    "compare_methods": ".runner",
    "InfluencePoint": ".influence",
    "influence_experiment": ".influence",
    "methods_table": ".reporting",
    "comparison_table": ".reporting",
    "series_text": ".reporting",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
