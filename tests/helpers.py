"""Oracles and helpers that only the tests use."""

import math

from csymcomp.csym import decide, decide_automorphism
from csymcomp.errors import DomainError
from csymcomp.hardy import H2Series
from csymcomp.mobius import MobiusMap, SpherePoint, as_sphere_point


def identity_map() -> MobiusMap:
    return MobiusMap(1, 0, 0, 1)


def is_identity_within(f: MobiusMap, tol: float) -> bool:
    """``MobiusMap.is_identity`` at a tolerance of the caller's, for maps built
    by several compositions."""
    return abs(f.b) <= tol and abs(f.c) <= tol and abs(f.a - f.d) <= tol


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal metric on the sphere; bounded by 2, continuous at infinity."""
    p, q = as_sphere_point(p), as_sphere_point(q)
    if p.is_infinity and q.is_infinity:
        return 0.0
    if p.is_infinity or q.is_infinity:
        w = q.finite if p.is_infinity else p.finite
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    u, v = p.finite, q.finite
    return 2.0 * abs(u - v) / math.sqrt((1.0 + abs(u) ** 2) * (1.0 + abs(v) ** 2))


def evaluate(f: H2Series, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial inside the disk."""
    z = complex(z)
    if abs(z) >= 1:
        raise DomainError(f"evaluation point must lie in the open disk, got |z|={abs(z)}")
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return acc


def cross_check(phi: MobiusMap) -> bool:
    """Consistency of the general and automorphism-only decision paths."""
    return decide(phi).is_cs == decide_automorphism(phi).is_cs
