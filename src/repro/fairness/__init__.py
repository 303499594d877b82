"""Fairness measures.

The paper's unfairness measure (Definition 1) extends *equalized error rates*:
the average absolute difference between each slice's loss and the loss on the
entire dataset.  The maximum variant captures worst-case unfairness.  Classic
group-fairness measures (demographic parity difference, equalized odds
difference) are also provided for context, although Slice Tuner itself only
optimizes equalized error rates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "unfairness": ".metrics",
    "average_equalized_error_rates": ".metrics",
    "max_equalized_error_rates": ".metrics",
    "demographic_parity_difference": ".metrics",
    "equalized_odds_difference": ".metrics",
    "FairnessReport": ".report",
    "evaluate_fairness": ".report",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
