"""Built-in slice discovery methods.

Importing a method's module registers it with the registry in
:mod:`repro.slices.discovery`; the registry imports all three on its first
lookup, so ``get_discovery_method("kmeans")`` works without an explicit
import.

* :mod:`~repro.slices.methods.stump` — ``"stump"``: error-driven
  feature-threshold rule induction.
* :mod:`~repro.slices.methods.kmeans` — ``"kmeans"``: error-aware k-means
  in feature space.
* :mod:`~repro.slices.methods.auto` — ``"auto"``: the Appendix-A
  label-entropy recursive slicer.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AutoSliceDiscovery": ".auto",
    "ErrorKMeansDiscovery": ".kmeans",
    "ErrorStumpDiscovery": ".stump",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
