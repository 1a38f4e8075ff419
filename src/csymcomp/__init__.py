"""Complex symmetric composition operators on the Hardy space of the disk.

Classification of linear fractional symbols, truncated-series verification
of the underlying operator identities, and a Riemannian search for
symmetric-unitary conjugation certificates.
"""

__version__ = "0.1.0"

from .backend import backend_name
from .csym import CsVerdict, Witness, decide, decide_automorphism, is_involutive_automorphism
from .hardy import H2Series, KernelSpec, inner_product, kernel, series_of_mobius
from .mobius import (
    INF,
    FixedPointData,
    MobiusMap,
    SpherePoint,
    SymbolClass,
    classify,
    classify_map,
    compose,
    fixed_points,
    involution,
    is_disk_selfmap,
    rotation,
)

__all__ = [
    "__version__",
    "backend_name",
    "CsVerdict",
    "Witness",
    "decide",
    "decide_automorphism",
    "is_involutive_automorphism",
    "H2Series",
    "KernelSpec",
    "inner_product",
    "kernel",
    "series_of_mobius",
    "INF",
    "FixedPointData",
    "MobiusMap",
    "SpherePoint",
    "SymbolClass",
    "classify",
    "classify_map",
    "compose",
    "fixed_points",
    "involution",
    "is_disk_selfmap",
    "rotation",
]
