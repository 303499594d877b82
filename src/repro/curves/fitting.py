"""Weighted fitting of learning curves.

The paper fits ``y = b x^-a`` with a non-linear least squares method, giving
subsets weights proportional to their sizes because losses measured on small
subsets are noisier.  The implementation here fits in log-log space (where
the power law is linear) with those weights, then optionally refines with
SciPy's non-linear least squares; the log-space fit alone is already the
maximum-likelihood answer under multiplicative noise and is extremely robust,
which matters because the estimator calls it thousands of times.
"""

from __future__ import annotations

import numpy as np

from repro.curves.power_law import PowerLawCurve, PowerLawWithFloor
from repro.utils.exceptions import FittingError

#: Exponent bounds: learning curves in the paper's experiments lie between
#: 0.06 (AdultCensus) and 0.93 (MNIST digits); the bounds are generous.
MIN_EXPONENT = 1e-3
MAX_EXPONENT = 5.0


def _validate_points(
    sizes: np.ndarray, losses: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sizes = np.asarray(sizes, dtype=np.float64).ravel()
    losses = np.asarray(losses, dtype=np.float64).ravel()
    if sizes.shape[0] != losses.shape[0]:
        raise FittingError("sizes and losses must have the same length")
    if weights is None:
        weights = sizes.copy()
    else:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != sizes.shape[0]:
            raise FittingError("weights must match sizes in length")

    valid = (sizes > 0) & (losses > 0) & np.isfinite(losses) & (weights > 0)
    sizes, losses, weights = sizes[valid], losses[valid], weights[valid]
    if np.unique(sizes).shape[0] < 2:
        raise FittingError(
            "at least two distinct positive sizes with positive losses are "
            "required to fit a learning curve"
        )
    return sizes, losses, weights


def fit_power_law(
    sizes: np.ndarray,
    losses: np.ndarray,
    weights: np.ndarray | None = None,
) -> PowerLawCurve:
    """Fit ``loss = b * size^-a`` to the measured points.

    Parameters
    ----------
    sizes:
        Training-set sizes of the measured points.
    losses:
        Validation losses measured at those sizes.
    weights:
        Per-point weights; defaults to the sizes themselves (the paper's
        choice), so small noisy subsets influence the fit less.

    Returns
    -------
    The fitted :class:`PowerLawCurve`.  The exponent is clipped to a small
    positive value if the measured losses do not decrease with size (which
    can happen for noisy small slices); the curve is then nearly flat, and
    Slice Tuner degrades gracefully towards the baselines, as the paper
    describes.
    """
    sizes, losses, weights = _validate_points(sizes, losses, weights)

    # Weighted linear regression of log(loss) on log(size).
    log_x = np.log(sizes)
    log_y = np.log(losses)
    w = weights / weights.sum()
    x_mean = float(np.sum(w * log_x))
    y_mean = float(np.sum(w * log_y))
    x_var = float(np.sum(w * (log_x - x_mean) ** 2))
    if x_var <= 0:
        raise FittingError("cannot fit a curve when all sizes are identical")
    covariance = float(np.sum(w * (log_x - x_mean) * (log_y - y_mean)))
    slope = covariance / x_var
    intercept = y_mean - slope * x_mean

    a = float(np.clip(-slope, MIN_EXPONENT, MAX_EXPONENT))
    # Keep the curve through the weighted centroid even when the exponent was
    # clipped: log b = y_mean + a * x_mean.
    b = float(np.exp(intercept + (slope + a) * x_mean))
    b = max(b, 1e-12)
    return PowerLawCurve(b=b, a=a)


def fit_power_law_with_floor(
    sizes: np.ndarray,
    losses: np.ndarray,
    weights: np.ndarray | None = None,
) -> PowerLawWithFloor:
    """Fit ``loss = b * size^-a + c`` with SciPy's non-linear least squares.

    The plain power-law fit seeds the optimization (with ``c = 0``); if the
    non-linear refinement fails to converge, the seed is returned with a zero
    floor so callers always get a usable curve.
    """
    sizes, losses, weights = _validate_points(sizes, losses, weights)
    seed = fit_power_law(sizes, losses, weights)

    def model(x: np.ndarray, b: float, a: float, c: float) -> np.ndarray:
        return b * np.power(x, -a) + c

    from scipy import optimize  # on first use: start-up stays scipy-free

    sigma = 1.0 / np.sqrt(weights)
    try:
        params, _ = optimize.curve_fit(
            model,
            sizes,
            losses,
            p0=[seed.b, seed.a, 0.0],
            sigma=sigma,
            bounds=([1e-12, MIN_EXPONENT, 0.0], [np.inf, MAX_EXPONENT, np.inf]),
            maxfev=5000,
        )
        b, a, c = (float(v) for v in params)
        return PowerLawWithFloor(b=max(b, 1e-12), a=a, c=max(c, 0.0))
    except (RuntimeError, ValueError):
        return PowerLawWithFloor(b=seed.b, a=seed.a, c=0.0)


def weighted_log_rmse(
    curve: PowerLawCurve | PowerLawWithFloor,
    sizes: np.ndarray,
    losses: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Weighted RMS error of ``curve`` against the points, in log space."""
    sizes, losses, weights = _validate_points(sizes, losses, weights)
    predicted = np.asarray(curve.predict(sizes), dtype=np.float64)
    predicted = np.maximum(predicted, 1e-12)
    residuals = np.log(losses) - np.log(predicted)
    w = weights / weights.sum()
    return float(np.sqrt(np.sum(w * residuals**2)))
