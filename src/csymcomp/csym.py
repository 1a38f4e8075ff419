"""Classifier: which linear fractional self-maps give complex symmetric operators.

The decision is purely geometric: the operator is complex symmetric
exactly when the symbol's fixed points are {0, exterior point}, or
{interior point, infinity}, or the symbol is an involutive automorphism.
A fixed point on the unit circle always rules complex symmetry out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, NotSelfMapError
from .mobius import (
    DEFAULT_TOL,
    FixedPointData,
    FixedPointKind,
    MobiusMap,
    SpherePoint,
    SymbolClass,
    SymbolKind,
    classify,
    fixed_points,
    is_disk_selfmap,
    order_tolerance,
)


class Witness(Enum):
    FIX_ZERO_AND_EXTERIOR = "fix_zero_and_exterior"
    FIX_INFINITY_AND_INTERIOR = "fix_infinity_and_interior"
    INVOLUTIVE_AUTOMORPHISM = "involutive_automorphism"


@dataclass
class CsVerdict:
    is_cs: bool
    witnesses: frozenset[Witness]
    fixed_points: FixedPointData
    symbol_class: SymbolClass
    notes: list[str] = field(default_factory=list)


def _location(p: SpherePoint, tol: float) -> str:
    """'zero' | 'interior' | 'boundary' | 'exterior' with a tolerance band."""
    if p.is_infinity:
        return "exterior"
    r = abs(p.finite)
    if r <= tol:
        return "zero"
    if r < 1.0 - tol:
        return "interior"
    if r <= 1.0 + tol:
        return "boundary"
    return "exterior"


def is_involutive_automorphism(phi: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff phi o phi is the identity, phi is not, and phi maps the disk into itself.

    By Cayley-Hamilton M^2 = tr(M) M - det(M) I for the coefficient matrix
    M, so for a map other than the identity phi o phi = id exactly when
    tr M = a + d = 0.  For an automorphism with multiplier lam,
    |lam + 1| = |tr M| / sqrt|det M|, and |lam^2 - 1| is twice that near
    lam = -1, so the trace is held to the tolerance of ``classify``'s order
    test and both decision paths agree on order two.
    """
    if phi.is_identity(tol):
        return False
    return (
        2.0 * abs(phi.a + phi.d) <= order_tolerance(phi, tol) * math.sqrt(abs(phi.det))
        and is_disk_selfmap(phi, tol)
    )


def decide(phi: MobiusMap, tol: float = DEFAULT_TOL) -> CsVerdict:
    """Evaluate the three sufficient-and-necessary conditions literally."""
    if not is_disk_selfmap(phi, tol):
        raise NotSelfMapError("symbol does not map the unit disk into itself")
    cls = classify(phi, tol)
    fp = fixed_points(phi, tol)
    notes: list[str] = []
    witnesses: set[Witness] = set()

    if fp.kind is FixedPointKind.IDENTITY:
        # the identity is a rotation, trivially normal
        notes.append("identity map (rotation)")
        witnesses.add(Witness.FIX_ZERO_AND_EXTERIOR)
        return CsVerdict(True, frozenset(witnesses), fp, cls, notes)

    if fp.kind is FixedPointKind.REPEATED:
        # parabolic type: the double fixed point sits on the boundary
        notes.append("repeated fixed point (parabolic type)")
        return CsVerdict(False, frozenset(), fp, cls, notes)

    p, q = fp.points
    loc_p, loc_q = _location(p, tol), _location(q, tol)
    locs = {loc_p, loc_q}
    if "boundary" in locs:
        notes.append("boundary fixed point")
    if (loc_p == "zero" and loc_q == "exterior") or (loc_q == "zero" and loc_p == "exterior"):
        witnesses.add(Witness.FIX_ZERO_AND_EXTERIOR)
    if (p.is_infinity and loc_q in ("zero", "interior")) or (
        q.is_infinity and loc_p in ("zero", "interior")
    ):
        witnesses.add(Witness.FIX_INFINITY_AND_INTERIOR)
    if is_involutive_automorphism(phi, tol):
        witnesses.add(Witness.INVOLUTIVE_AUTOMORPHISM)
    return CsVerdict(bool(witnesses), frozenset(witnesses), fp, cls, notes)


def decide_automorphism(phi: MobiusMap, tol: float = DEFAULT_TOL) -> CsVerdict:
    """Automorphism-only route: complex symmetric iff rotation or order two."""
    cls = classify(phi, tol)
    if not cls.is_automorphism:
        raise DomainError(f"expected a disk automorphism, got {cls.kind.value}")
    fp = fixed_points(phi, tol)
    notes: list[str] = []
    witnesses: set[Witness] = set()
    if cls.kind is SymbolKind.ROTATION:
        witnesses.add(Witness.FIX_ZERO_AND_EXTERIOR)
        if cls.order == 2.0:
            witnesses.add(Witness.INVOLUTIVE_AUTOMORPHISM)
    elif cls.kind is SymbolKind.ELLIPTIC_AUT:
        if cls.order == 2.0:
            witnesses.add(Witness.INVOLUTIVE_AUTOMORPHISM)
        else:
            notes.append(f"elliptic automorphism of order {cls.order}, not a rotation")
    else:
        notes.append(f"{cls.kind.value}: no fixed point in the open disk")
    return CsVerdict(bool(witnesses), frozenset(witnesses), fp, cls, notes)


def cross_check(phi: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """Consistency of the general and automorphism-only decision paths."""
    return decide(phi, tol).is_cs == decide_automorphism(phi, tol).is_cs
