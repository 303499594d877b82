"""Using Slice Tuner on your own tabular data with predicate-defined slices.

The other examples build slices from the synthetic task generators.  This one
shows the workflow for a dataset you already have as feature/label arrays
(an AdultCensus-like income prediction task):

1. slice an existing dataset with conjunctions of feature-value pairs
   (``gender = female AND race = black``), as in Section 2.1 of the paper,
2. assemble a :class:`SlicedDataset` with per-slice validation data and
   per-slice acquisition costs,
3. acquire new examples from a finite reserve pool (``PoolDataSource``) —
   the analogue of a fixed unlabeled corpus that can run dry, and
4. let the automatic slicer (Appendix A) suggest finer unbiased slices.

Run with::

    python examples/custom_slices_tabular.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CurveEstimationConfig,
    PoolDataSource,
    SliceTuner,
    SliceTunerConfig,
    TableCost,
    TrainingConfig,
    adult_like_task,
)
from repro.ml.data import train_validation_split
from repro.slices import (
    FeaturePredicate,
    SlicedDataset,
    get_discovery_method,
    partition_by_predicates,
)
from repro.slices.methods.auto import label_entropy
from repro.utils.tables import format_table

#: The demographic encoding used by the synthetic generator: the slice
#: identity shows up in which of the trailing feature columns carries the
#: demographic offset, but for this example we slice on synthetic
#: "gender"/"race" indicator columns appended below.
SLICE_NAMES = ("White_Male", "White_Female", "Black_Male", "Black_Female")


def build_raw_dataset(rng: np.random.Generator):
    """Materialize one flat dataset with explicit gender/race indicator columns."""
    task = adult_like_task()
    parts, genders, races = [], [], []
    for name in SLICE_NAMES:
        examples = task.generate(name, 700, random_state=rng)
        parts.append(examples)
        race, gender = name.split("_")
        genders.extend([1.0 if gender == "Female" else 0.0] * len(examples))
        races.extend([1.0 if race == "Black" else 0.0] * len(examples))
    from repro.ml.data import Dataset

    combined = Dataset.concatenate(parts)
    features = np.column_stack(
        [combined.features, np.asarray(genders), np.asarray(races)]
    )
    return Dataset(features, combined.labels), task


def main() -> None:
    rng = np.random.default_rng(0)
    dataset, task = build_raw_dataset(rng)
    gender_col = dataset.n_features - 2
    race_col = dataset.n_features - 1

    # 1. Slice with conjunctions of feature-value pairs.
    predicates = {
        "White_Male": FeaturePredicate(equals={gender_col: 0.0, race_col: 0.0}),
        "White_Female": FeaturePredicate(equals={gender_col: 1.0, race_col: 0.0}),
        "Black_Male": FeaturePredicate(equals={gender_col: 0.0, race_col: 1.0}),
        "Black_Female": FeaturePredicate(equals={gender_col: 1.0, race_col: 1.0}),
    }
    slices = partition_by_predicates(dataset, predicates)

    # 2. Per slice: keep a small training set, a validation set, and leave the
    #    rest as the acquisition reserve pool.
    train_by_slice, validation_by_slice, pools = {}, {}, {}
    initial_sizes = {"White_Male": 300, "White_Female": 150, "Black_Male": 80, "Black_Female": 50}
    for name, data in slices.items():
        reserve, rest = train_validation_split(data, validation_size=300, random_state=rng)
        validation, remainder = train_validation_split(rest, validation_size=200, random_state=rng)
        train_by_slice[name] = remainder.take(initial_sizes[name])
        validation_by_slice[name] = validation
        pools[name] = reserve

    costs = {"White_Male": 1.0, "White_Female": 1.0, "Black_Male": 1.3, "Black_Female": 1.5}
    sliced = SlicedDataset.from_datasets(
        train_by_slice, validation_by_slice, n_classes=2, costs=costs
    )

    # 3. Acquire from the finite pools.
    source = PoolDataSource(pools, random_state=1)
    tuner = SliceTuner(
        sliced,
        source,
        trainer_config=TrainingConfig(epochs=40, batch_size=64, learning_rate=0.05),
        curve_config=CurveEstimationConfig(n_points=5, n_repeats=1),
        cost_model=TableCost(costs),
        config=SliceTunerConfig(lam=1.0, min_slice_size=60, evaluation_trials=2),
        random_state=2,
    )
    result = tuner.run(budget=400, method="conservative")

    rows = [
        [name, initial_sizes[name], result.total_acquired.get(name, 0), source.available(name)]
        for name in SLICE_NAMES
    ]
    print(
        format_table(
            headers=["slice", "initial size", "acquired", "left in pool"],
            rows=rows,
            title="Conservative acquisition from finite pools (budget 400)",
        )
    )
    print()
    print(
        f"loss    {result.initial_report.loss:.3f} -> {result.final_report.loss:.3f}\n"
        f"avg EER {result.initial_report.avg_eer:.3f} -> {result.final_report.avg_eer:.3f}"
    )

    # 4. Appendix A: let the automatic slicer propose finer unbiased slices.
    print()
    print("Automatic slicing of the White_Male slice (Appendix A):")
    auto = get_discovery_method(
        "auto", max_depth=2, min_slice_size=50, entropy_threshold=0.45
    )
    leaves = auto.fit(None, slices["White_Male"]).transform(slices["White_Male"])
    for name in leaves.names:
        leaf = leaves[name].train
        print(f"  {name}: {len(leaf)} examples, label entropy {label_entropy(leaf):.2f}")


if __name__ == "__main__":
    main()
