"""Exact algebra and geometric classification of linear fractional maps.

A map z -> (az+b)/(cz+d) with ad-bc != 0 acts biholomorphically on the
Riemann sphere.  This module provides the group operations, fixed point
extraction, and the taxonomy of self-maps of the unit disk (rotations,
elliptic/hyperbolic/parabolic automorphisms, non-automorphisms with
interior or boundary fixed points).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InvalidMapError, PoleDerivativeError

#: Default tolerance for geometric predicates.
DEFAULT_TOL = 1e-10

#: Tolerance below which a (max-modulus-normalized) determinant is rejected.
DET_TOL = 1e-12

#: Threshold for treating a normalized coefficient as exactly zero.
COEF_EPS = 1e-13

#: Relative margin by which the pole of a self-map clears the closed unit disk.
POLE_MARGIN = 1e-12
_POLE_RATIO_SQ = (1.0 + POLE_MARGIN) ** 2  # for the same test on squared moduli

#: Upper bound for elliptic order detection; beyond this the order is infinite.
ORDER_MAX = 64

#: Order-test tolerance per unit of conditioning: the multiplier at the
#: interior fixed point carries a rounding error of a few 1e-15 times kappa,
#: and kappa reaches 1e8 for elliptic maps centred at |a| = 1 - 1e-4.
ORDER_TOL_PER_KAPPA = 1e-13


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex number or infinity."""

    value: complex | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> complex:
        if self.value is None:
            raise DomainError("point at infinity has no finite value")
        return self.value

    def __repr__(self):
        return "SpherePoint(inf)" if self.value is None else f"SpherePoint({self.value})"


#: The distinguished point at infinity.
INF = SpherePoint(None)


def as_sphere_point(z) -> SpherePoint:
    if isinstance(z, SpherePoint):
        return z
    return SpherePoint(complex(z))


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


class FixedPointKind(Enum):
    DISTINCT_PAIR = "distinct_pair"
    REPEATED = "repeated"
    IDENTITY = "identity"


@dataclass(frozen=True)
class FixedPointData:
    kind: FixedPointKind
    points: tuple[SpherePoint, ...]

    @classmethod
    def distinct(cls, p: SpherePoint, q: SpherePoint) -> "FixedPointData":
        return cls(FixedPointKind.DISTINCT_PAIR, (p, q))

    @classmethod
    def repeated(cls, p: SpherePoint) -> "FixedPointData":
        return cls(FixedPointKind.REPEATED, (p,))

    @classmethod
    def identity(cls) -> "FixedPointData":
        return cls(FixedPointKind.IDENTITY, ())


class SymbolKind(Enum):
    ROTATION = "rotation"
    ELLIPTIC_AUT = "elliptic_automorphism"
    HYPERBOLIC_AUT = "hyperbolic_automorphism"
    PARABOLIC_AUT = "parabolic_automorphism"
    NONAUT_INTERIOR_FIXED = "nonautomorphism_interior_fixed"
    NONAUT_BOUNDARY_FIXED = "nonautomorphism_boundary_fixed"
    NOT_SELF_MAP = "not_self_map"


@dataclass(frozen=True)
class SymbolClass:
    """Classification of a linear fractional self-map of the disk.

    ``order`` is set for rotations and elliptic automorphisms (``math.inf``
    when no finite iterate is the identity); ``center`` is the interior
    fixed point when one exists.
    """

    kind: SymbolKind
    order: float | None = None
    center: complex | None = None

    @property
    def is_automorphism(self) -> bool:
        return self.kind in (
            SymbolKind.ROTATION,
            SymbolKind.ELLIPTIC_AUT,
            SymbolKind.HYPERBOLIC_AUT,
            SymbolKind.PARABOLIC_AUT,
        )


@dataclass(frozen=True)
class MobiusMap:
    """z -> (az+b)/(cz+d), stored with max coefficient modulus scaled to 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if not math.isfinite(scale) or scale == 0.0:
            raise InvalidMapError("coefficients must be finite and not all zero")
        object.__setattr__(self, "a", complex(self.a) / scale)
        object.__setattr__(self, "b", complex(self.b) / scale)
        object.__setattr__(self, "c", complex(self.c) / scale)
        object.__setattr__(self, "d", complex(self.d) / scale)
        if not abs(self.det) > DET_TOL:  # also a NaN that max() passed over
            raise InvalidMapError(f"determinant {self.det} not finite or too close to zero")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def conditioning(self) -> float:
        """kappa = 1/|ad - bc| of the normalized coefficients; large near the circle."""
        return 1.0 / abs(self.det)

    @property
    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def __call__(self, z) -> SpherePoint:
        return apply(self, z)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def pole(self) -> SpherePoint:
        """Preimage of infinity."""
        if abs(self.c) <= COEF_EPS:
            return INF
        return SpherePoint(-self.d / self.c)

    def is_identity(self, tol: float = DEFAULT_TOL) -> bool:
        # proportionality to (1, 0, 0, 1); coefficients are normalized already
        return (
            abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.a - self.d) <= tol
        )


def identity_map() -> MobiusMap:
    return MobiusMap(1, 0, 0, 1)


def rotation(omega: complex) -> MobiusMap:
    """z -> omega*z."""
    return MobiusMap(omega, 0, 0, 1)


def involution(a: complex) -> MobiusMap:
    """The self-inverse disk automorphism (a-z)/(1 - conj(a) z) swapping 0 and a."""
    a = complex(a)
    if abs(a) >= 1:
        raise DomainError(f"involution center must lie in the open disk, got |a|={abs(a)}")
    return MobiusMap(-1, a, -a.conjugate(), 1)


def compose(f: MobiusMap, g: MobiusMap) -> MobiusMap:
    """f after g, realized as the 2x2 coefficient-matrix product."""
    return MobiusMap(
        f.a * g.a + f.b * g.c,
        f.a * g.b + f.b * g.d,
        f.c * g.a + f.d * g.c,
        f.c * g.b + f.d * g.d,
    )


def conjugate_by_involution(f: MobiusMap, a: complex) -> MobiusMap:
    """phi_a o f o phi_a; moves the fixed points of f by phi_a."""
    phi = involution(a)
    return compose(phi, compose(f, phi))


def elliptic(omega: complex, center: complex) -> MobiusMap:
    """Elliptic self-map with the given interior fixed point and multiplier omega."""
    return conjugate_by_involution(rotation(omega), center)


def apply(f: MobiusMap, z) -> SpherePoint:
    z = as_sphere_point(z)
    if z.is_infinity:
        if abs(f.c) <= COEF_EPS:
            return INF
        return SpherePoint(f.a / f.c)
    w = z.finite
    num = f.a * w + f.b
    den = f.c * w + f.d
    if abs(den) <= COEF_EPS * max(1.0, abs(f.c) * abs(w) + abs(f.d), abs(w)):
        return INF
    return SpherePoint(num / den)


def derivative_at(f: MobiusMap, z: complex) -> complex:
    z = complex(z)
    den = f.c * z + f.d
    if abs(den) <= COEF_EPS * max(1.0, abs(z)):
        raise PoleDerivativeError(f"derivative requested at the pole z={z}")
    return f.det / den**2


def second_derivative_at(f: MobiusMap, z: complex) -> complex:
    z = complex(z)
    den = f.c * z + f.d
    if abs(den) <= COEF_EPS * max(1.0, abs(z)):
        raise PoleDerivativeError(f"second derivative requested at the pole z={z}")
    return -2.0 * f.c * f.det / den**3


def fixed_points(f: MobiusMap, tol: float = DEFAULT_TOL) -> FixedPointData:
    """Roots of c z^2 + (d-a) z - b = 0 interpreted on the sphere."""
    if f.is_identity(tol):
        return FixedPointData.identity()
    A, B, C = f.c, f.d - f.a, -f.b
    if abs(A) <= COEF_EPS:
        # infinity is fixed
        if abs(B) <= COEF_EPS:
            # translation z + b/d: double fixed point at infinity
            return FixedPointData.repeated(INF)
        return FixedPointData.distinct(SpherePoint(-C / B), INF)
    disc = B * B - 4.0 * A * C
    if abs(disc) <= DET_TOL * max(abs(B) ** 2, abs(4 * A * C), 1e-30):
        return FixedPointData.repeated(SpherePoint(-B / (2.0 * A)))
    sq = cmath.sqrt(disc)
    # stable quadratic: pick the sign avoiding cancellation
    if abs(B + sq) >= abs(B - sq):
        q = -0.5 * (B + sq)
    else:
        q = -0.5 * (B - sq)
    r1 = q / A
    r2 = C / q if abs(q) > 0 else -B / A - r1
    return FixedPointData.distinct(SpherePoint(r1), SpherePoint(r2))


def pole_outside_closed_disk(c: complex, d: complex) -> bool:
    """True iff the pole -d/c of (az + b)/(cz + d) clears the closed unit disk
    by the relative margin ``POLE_MARGIN``: |d| > (1 + POLE_MARGIN) |c|."""
    return abs(d) > (1.0 + POLE_MARGIN) * abs(c)


def _image_disk(f: MobiusMap):
    """Image of the unit disk in closed form (Cowen 1988), or None if it is unbounded.

    When ``pole_outside_closed_disk(c, d)`` holds, f(D) is the disk
    with center (b conj(d) - a conj(c))/g and radius |ad - bc|/g, where
    g = |d|^2 - |c|^2.  Returns ``(g |center|, g radius, g, |c|^2 + |d|^2)``.
    The predicates compare |center| + radius with 1 multiplied through by g,
    which is small when the pole nears the circle, so none divides by it;
    their tolerance is relative to |c|^2 + |d|^2.  The reciprocal of
    g radius is the conditioning kappa (``MobiusMap.conditioning``).  Otherwise
    None is returned, by the same test on the squared moduli.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    cc = c.real * c.real + c.imag * c.imag
    dd = d.real * d.real + d.imag * d.imag
    if dd <= _POLE_RATIO_SQ * cc:
        return None
    return abs(b * d.conjugate() - a * c.conjugate()), abs(f.det), dd - cc, cc + dd


def is_disk_selfmap(f: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff f maps the unit disk into itself: |center| + radius <= 1."""
    disk = _image_disk(f)
    if disk is None:
        return False
    offset, radius, gap, scale = disk
    return offset + radius <= gap + tol * scale


def boundary_contact(f: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """Advisory flag: the image of the unit circle is internally tangent to it."""
    disk = _image_disk(f)
    if disk is None:
        return False
    offset, radius, gap, scale = disk
    return abs(offset + radius - gap) <= tol * scale


def is_automorphism(f: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff f maps the disk onto itself: center 0 and radius 1."""
    disk = _image_disk(f)
    if disk is None:
        return False
    offset, radius, gap, scale = disk
    return offset <= tol * scale and abs(radius - gap) <= tol * scale


def order_tolerance(f: MobiusMap, tol: float = DEFAULT_TOL) -> float:
    """Tolerance of ``classify``'s order test: max(tol, 1e-13 kappa)."""
    return max(tol, ORDER_TOL_PER_KAPPA * f.conditioning)


def multiplier_order(lam: complex, tol: float = DEFAULT_TOL, q_max: int = ORDER_MAX) -> float:
    """Smallest q <= q_max with lam^q = 1 within tol, else math.inf."""
    p = 1.0 + 0.0j
    for q in range(1, q_max + 1):
        p *= lam
        if abs(p - 1.0) <= tol:
            return float(q)
    return math.inf


def classify(f: MobiusMap, tol: float = DEFAULT_TOL) -> SymbolClass:
    if f.is_identity(tol):
        return SymbolClass(SymbolKind.ROTATION, order=1.0, center=0.0 + 0.0j)
    if not is_disk_selfmap(f, tol):
        return SymbolClass(SymbolKind.NOT_SELF_MAP)
    fp = fixed_points(f, tol)
    if is_automorphism(f, tol):
        if fp.kind is FixedPointKind.REPEATED:
            return SymbolClass(SymbolKind.PARABOLIC_AUT)
        interior = [
            p for p in fp.points if not p.is_infinity and abs(p.finite) < 1.0 - tol
        ]
        if not interior:
            return SymbolClass(SymbolKind.HYPERBOLIC_AUT)
        center = interior[0].finite
        order = multiplier_order(derivative_at(f, center), order_tolerance(f, tol))
        if abs(f.b) <= tol and abs(f.c) <= tol:
            return SymbolClass(SymbolKind.ROTATION, order=order, center=0.0 + 0.0j)
        return SymbolClass(SymbolKind.ELLIPTIC_AUT, order=order, center=center)
    # non-automorphism self-map
    interior = [
        p
        for p in fp.points
        if not p.is_infinity and abs(p.finite) < 1.0 - tol
    ]
    if interior:
        return SymbolClass(SymbolKind.NONAUT_INTERIOR_FIXED, center=interior[0].finite)
    return SymbolClass(SymbolKind.NONAUT_BOUNDARY_FIXED)


def interior_fixed_point(f: MobiusMap, tol: float = DEFAULT_TOL) -> complex:
    """The fixed point of f strictly inside the disk; DomainError if none."""
    fp = fixed_points(f, tol)
    if fp.kind is FixedPointKind.IDENTITY:
        return 0.0 + 0.0j
    for p in fp.points:
        if not p.is_infinity and abs(p.finite) < 1.0 - tol:
            return p.finite
    raise DomainError("map has no fixed point in the open disk")
