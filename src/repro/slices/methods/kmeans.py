"""Error-aware k-means slice discovery (``"kmeans"``).

Clusters the fit data in *standardized feature space augmented with the
misclassification indicator*: rows the model gets wrong are pushed apart
from rows it gets right (by ``error_weight``), so Lloyd iterations carve
out error-dense regions.  The final partition is the Voronoi diagram of the
per-cluster centroids projected back onto plain feature space, which makes
:meth:`assign` a deterministic function of features alone — new, unlabeled
rows route to slices without needing the model.

Determinism: the only randomness is the seeded initial-center choice; Lloyd
runs a fixed number of iterations, ties in the nearest-center argmin keep
the lowest cluster index, and empty clusters are re-seeded with the point
farthest from its center (again lowest-index ties).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.data import Dataset
from repro.slices.discovery import SliceDiscoveryMethod, register_discovery_method
from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int


@register_discovery_method(
    "kmeans",
    aliases=("error_kmeans",),
    description="error-aware k-means clustering in feature space",
)
class ErrorKMeansDiscovery(SliceDiscoveryMethod):
    """K-means over features augmented with the error indicator."""

    @dataclass(frozen=True)
    class Config:
        n_slices: int = 4
        n_iterations: int = 30
        error_weight: float = 3.0
        seed: int = 0

        def __post_init__(self) -> None:
            check_positive_int(self.n_slices, "n_slices")
            check_positive_int(self.n_iterations, "n_iterations")
            if self.error_weight < 0:
                raise ConfigurationError(
                    f"error_weight must be >= 0, got {self.error_weight}"
                )

    def fit(self, model, dataset: Dataset, predictions=None):
        errors = self._error_indicator("kmeans", model, dataset, predictions)

        self._mean = dataset.features.mean(axis=0)
        self._std = np.maximum(dataset.features.std(axis=0), 1e-9)
        standardized = (dataset.features - self._mean) / self._std
        augmented = np.column_stack(
            [standardized, self.config.error_weight * errors]
        )

        n = len(dataset)
        k = min(self.config.n_slices, n)
        rng = np.random.default_rng(self.config.seed)
        centers = augmented[np.sort(rng.choice(n, size=k, replace=False))].copy()
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(self.config.n_iterations):
            distances = np.linalg.norm(
                augmented[:, None, :] - centers[None, :, :], axis=2
            )
            labels = distances.argmin(axis=1)
            for cluster in range(k):
                members = labels == cluster
                if members.any():
                    centers[cluster] = augmented[members].mean(axis=0)
                else:
                    # Re-seed the empty cluster with the point farthest from
                    # its current center (lowest row index on ties).
                    own = distances[np.arange(n), labels]
                    centers[cluster] = augmented[int(own.argmax())]

        # Project back to plain feature space: the partition served by
        # assign() is the Voronoi diagram of these feature-only centroids.
        kept_centers = []
        kept_errors = []
        for cluster in range(k):
            members = labels == cluster
            if members.any():
                kept_centers.append(standardized[members].mean(axis=0))
                kept_errors.append(float(errors[members].mean()))
        self._centers = np.array(kept_centers)
        self._error_rates = kept_errors
        return self._mark_fitted()

    def _assign_regions(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if len(features) == 0:
            return np.zeros(0, dtype=np.int64)
        standardized = (features - self._mean) / self._std
        distances = np.linalg.norm(
            standardized[:, None, :] - self._centers[None, :, :], axis=2
        )
        return distances.argmin(axis=1).astype(np.int64)

    def _region_names(self) -> list[str]:
        return [f"km{index}" for index in range(len(self._centers))]

    def _boundary_payload(self) -> object:
        return {
            "mean": [float(v) for v in self._mean],
            "std": [float(v) for v in self._std],
            "centers": [[float(v) for v in row] for row in self._centers],
            "error_rates": [round(rate, 12) for rate in self._error_rates],
        }
