"""Built-in slice discovery methods.

Importing this package registers every built-in method with the registry in
:mod:`repro.slices.discovery` (the registry also imports these modules
lazily on first lookup, so ``get_discovery_method("kmeans")`` works without
an explicit import).

* :mod:`~repro.slices.methods.stump` — ``"stump"``: error-driven
  feature-threshold rule induction.
* :mod:`~repro.slices.methods.kmeans` — ``"kmeans"``: error-aware k-means
  in feature space.
* :mod:`~repro.slices.methods.auto` — ``"auto"``: the Appendix-A
  label-entropy recursive slicer.
"""

from repro.slices.methods.auto import AutoSliceDiscovery
from repro.slices.methods.kmeans import ErrorKMeansDiscovery
from repro.slices.methods.stump import ErrorStumpDiscovery

__all__ = [
    "AutoSliceDiscovery",
    "ErrorKMeansDiscovery",
    "ErrorStumpDiscovery",
]
