"""Learning-curve estimation (Section 4 of the paper).

A learning curve projects how the model's loss on one slice changes as that
slice's training data grows.  Following the paper (and Hestness et al.), the
curve is modelled as a power law ``loss = b * size^-a`` fitted with weighted
non-linear least squares on losses measured by training models on random
subsets of the data.

* :class:`~repro.curves.power_law.PowerLawCurve` /
  :class:`~repro.curves.power_law.PowerLawWithFloor` — the curve models.
* :mod:`~repro.curves.parametric` — alternative parametric families used for
  the Domhan-style comparison ablation.
* :func:`~repro.curves.fitting.fit_power_law` — weighted fitting.
* :class:`~repro.curves.estimator.LearningCurveEstimator` — produces one
  fitted curve per slice using either the exhaustive protocol or the
  amortized ("efficient") protocol of Section 4.2.
* :mod:`~repro.curves.reliability` — curve averaging and reliability scores.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PowerLawCurve": ".power_law",
    "PowerLawWithFloor": ".power_law",
    "FittedCurve": ".power_law",
    "fit_power_law": ".fitting",
    "fit_power_law_with_floor": ".fitting",
    "CurveFamily": ".parametric",
    "CURVE_FAMILIES": ".parametric",
    "fit_family": ".parametric",
    "select_best_family": ".parametric",
    "CurvePoint": ".estimator",
    "CurveEstimationConfig": ".estimator",
    "LearningCurveEstimator": ".estimator",
    "average_curves": ".reliability",
    "curve_reliability": ".reliability",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
