"""Experimental scenarios: how the initial slice sizes are chosen.

The paper evaluates three settings in Table 6 — a *basic* setting where
slices start with equal amounts of data, a setting *pathological for Uniform*
(many slices already have low loss), and a setting *pathological for Water
filling* (a large slice with high loss and a small slice with low loss) —
plus the Appendix C setting where initial sizes follow an exponential
distribution and the Section 6.3.4 setting with very small slices.

A :class:`Scenario` turns a synthetic task into the mapping of initial sizes
per slice.  Difficulty information (the blueprint noise) identifies "high
loss" and "low loss" slices for the pathological settings.

Scenarios also carry a *source kind* — which acquisition setup the
experiment runner should build (see
:func:`repro.experiments.runner.build_sources`).  The paper's settings all
use the unlimited ``"generator"``; the service-layer scenarios exercise the
multi-source router instead:

* ``mixed_sources`` — a finite per-slice pool that drains mid-run, with the
  generator as failover: fulfillments start on the pool and hand over to
  the generator, exercising :class:`~repro.acquisition.providers.
  CompositeSource`-style priority routing.
* ``flaky_source`` — a :class:`~repro.acquisition.providers.ThrottledSource`
  capping every request, so each batch comes back partially fulfilled and
  the router must retry across rounds.

Finally, the *dynamic* scenarios exercise slice discovery: they carry a
``discover`` method name and a ``reslice_every`` cadence, so the tuner
re-runs discovery mid-run and swaps to the discovered slices (see
:mod:`repro.slices.discovery`):

* ``dynamic_slices`` — exponential initial sizes with periodic error
  k-means re-slicing.
* ``drifting_slices`` — skewed initial sizes with periodic error-stump
  re-slicing, modelling boundaries that drift as data accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datasets.blueprints import SyntheticTask, exponential_initial_sizes
from repro.utils.exceptions import ConfigurationError
from repro.utils.registry import Registry


@dataclass(frozen=True)
class Scenario:
    """A named rule producing initial slice sizes for a task.

    Attributes
    ----------
    name:
        Scenario name.
    description:
        What the scenario stresses (used in reports).
    sizer:
        Callable ``(task, base_size) -> {slice_name: initial_size}``.
    source_kind:
        Which acquisition setup the experiment runner builds for the
        scenario (see :func:`repro.experiments.runner.build_sources`);
        ``"generator"`` reproduces the paper's unlimited simulator.
    discover:
        Name of a registered slice-discovery method the tuner should
        re-run mid-campaign (``None`` keeps the task's static slices).
    reslice_every:
        Iteration cadence for re-running discovery (0 disables it; must
        be >= 1 when ``discover`` is set).
    """

    name: str
    description: str
    sizer: Callable[[SyntheticTask, int], dict[str, int]]
    source_kind: str = "generator"
    discover: str | None = None
    reslice_every: int = 0

    def initial_sizes(self, task: SyntheticTask, base_size: int) -> dict[str, int]:
        """Initial sizes for ``task`` with the scenario's rule."""
        sizes = self.sizer(task, int(base_size))
        missing = set(task.slice_names) - set(sizes)
        if missing:
            raise ConfigurationError(
                f"scenario {self.name!r} did not size slices {sorted(missing)}"
            )
        return sizes


# -- sizing rules ------------------------------------------------------------------

def _equal_sizes(task: SyntheticTask, base_size: int) -> dict[str, int]:
    return {name: base_size for name in task.slice_names}


def _difficulty_order(task: SyntheticTask) -> list[str]:
    """Slice names sorted from easiest (lowest noise) to hardest."""
    return sorted(task.slice_names, key=lambda name: task.blueprint(name).noise)


def _bad_for_uniform(task: SyntheticTask, base_size: int) -> dict[str, int]:
    """Many slices already have plenty of data (low loss), a few are starved.

    Uniform then wastes most of its budget on slices that no longer benefit.
    """
    by_difficulty = _difficulty_order(task)
    n = len(by_difficulty)
    n_starved = max(1, n // 4)
    starved = set(by_difficulty[-n_starved:])  # the hardest few slices
    sizes = {}
    for name in task.slice_names:
        sizes[name] = base_size // 4 if name in starved else base_size * 2
    return sizes


def _bad_for_water_filling(task: SyntheticTask, base_size: int) -> dict[str, int]:
    """A large slice with high loss and small slices with low loss.

    Water filling pours the budget into the small easy slices (to equalize
    sizes) even though they do not need data, while the big hard slice keeps
    its high loss.
    """
    by_difficulty = _difficulty_order(task)
    hardest = by_difficulty[-1]
    easiest = set(by_difficulty[: max(1, len(by_difficulty) // 3)])
    sizes = {}
    for name in task.slice_names:
        if name == hardest:
            sizes[name] = base_size * 3
        elif name in easiest:
            sizes[name] = base_size // 3
        else:
            sizes[name] = base_size
    return sizes


def _exponential(task: SyntheticTask, base_size: int) -> dict[str, int]:
    return exponential_initial_sizes(
        task.slice_names, largest=base_size * 2, decay=0.85, minimum=max(base_size // 5, 10)
    )


def _small_slices(task: SyntheticTask, base_size: int) -> dict[str, int]:
    """Very small slices, so learning curves are noisy (Section 6.3.4)."""
    return {name: max(base_size // 6, 15) for name in task.slice_names}


#: Every scenario, by name.
SCENARIOS: Registry[Scenario] = Registry("scenario")
for _scenario in (
    Scenario(
        name="basic",
        description="all slices start with the same amount of data",
        sizer=_equal_sizes,
    ),
    Scenario(
        name="bad_for_uniform",
        description="most slices already have low loss; Uniform wastes budget",
        sizer=_bad_for_uniform,
    ),
    Scenario(
        name="bad_for_water_filling",
        description="a large hard slice and small easy slices; Water filling wastes budget",
        sizer=_bad_for_water_filling,
    ),
    Scenario(
        name="exponential",
        description="initial sizes follow an exponential distribution (Appendix C)",
        sizer=_exponential,
    ),
    Scenario(
        name="small_slices",
        description="tiny slices with unreliable learning curves (Section 6.3.4)",
        sizer=_small_slices,
    ),
    Scenario(
        name="mixed_sources",
        description=(
            "equal initial sizes served by a draining pool with generator "
            "failover (multi-source routing)"
        ),
        sizer=_equal_sizes,
        source_kind="mixed",
    ),
    Scenario(
        name="flaky_source",
        description=(
            "equal initial sizes served by a throttled source that caps "
            "every request (partial fulfillments + retries)"
        ),
        sizer=_equal_sizes,
        source_kind="flaky",
    ),
    Scenario(
        name="dynamic_slices",
        description=(
            "exponential initial sizes with periodic error k-means "
            "re-slicing (slice boundaries discovered from the model)"
        ),
        sizer=_exponential,
        discover="kmeans",
        reslice_every=2,
    ),
    Scenario(
        name="drifting_slices",
        description=(
            "skewed initial sizes with periodic error-stump re-slicing "
            "(boundaries drift as acquired data accumulates)"
        ),
        sizer=_bad_for_water_filling,
        discover="stump",
        reslice_every=2,
    ),
):
    SCENARIOS.add(_scenario.name, _scenario, description=_scenario.description)

list_scenarios = SCENARIOS.names
build_scenario = SCENARIOS.get
