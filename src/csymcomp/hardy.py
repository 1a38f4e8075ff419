"""Truncated-coefficient calculus on the Hardy space of the unit disk.

Elements are represented by their leading Taylor coefficients in the
orthonormal monomial basis, so the inner product is the plain sesquilinear
coefficient sum.  All arithmetic (products, powers) produces the exact
leading coefficients of the result at the working truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import DomainError
from .mobius import MobiusMap, apply, is_automorphism


class H2Series:
    """A truncated element of the Hardy space: coefficients of z^0..z^(N-1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 1:
            raise ValueError("coefficient array must be one-dimensional")

    @property
    def truncation(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def extended(self, n: int) -> "H2Series":
        """Zero-extension (or truncation) to length n."""
        if n == self.truncation:
            return self
        out = np.zeros(n, dtype=np.complex128)
        m = min(n, self.truncation)
        out[:m] = self.coeffs[:m]
        return H2Series(out)

    def __add__(self, other: "H2Series") -> "H2Series":
        n = max(self.truncation, other.truncation)
        return H2Series(self.extended(n).coeffs + other.extended(n).coeffs)

    def __sub__(self, other: "H2Series") -> "H2Series":
        n = max(self.truncation, other.truncation)
        return H2Series(self.extended(n).coeffs - other.extended(n).coeffs)

    def __mul__(self, scalar) -> "H2Series":
        return H2Series(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"H2Series(N={self.truncation}, norm={self.norm():.6g})"


def constant(value: complex, n: int) -> H2Series:
    out = np.zeros(n, dtype=np.complex128)
    out[0] = value
    return H2Series(out)


def inner_product(f: H2Series, g: H2Series) -> complex:
    """Sum of f_j conj(g_j) over the zero-extended common range."""
    m = min(f.truncation, g.truncation)
    return complex(np.vdot(g.coeffs[:m], f.coeffs[:m]))


@dataclass(frozen=True)
class KernelSpec:
    """Evaluation functional of the j-th derivative at a point of the disk."""

    w: complex
    order: int = 0

    def __post_init__(self):
        if abs(self.w) >= 1:
            raise DomainError(f"kernel point must lie in the open disk, got |w|={abs(self.w)}")
        if self.order < 0:
            raise DomainError("derivative order must be nonnegative")


def kernel(spec: KernelSpec, n: int) -> H2Series:
    """Coefficients of K_w (order 0) or K_w^[j]: pairing gives f^(j)(w).

    Coefficient of z^m is m(m-1)...(m-j+1) conj(w)^(m-j) for m >= j.  The
    falling factorial is a product of integers, exact in floating point
    while it stays below 2^53.
    """
    w = complex(spec.w).conjugate()
    j = spec.order
    out = np.zeros(n, dtype=np.complex128)
    if j >= n:
        return H2Series(out)
    m = np.arange(j, n, dtype=np.float64)
    falling = np.ones(n - j)
    for i in range(j):
        falling *= m - i
    out[j:] = falling * backend._geometric(w, n - j)
    return H2Series(out)


def reproducing_kernel(w: complex, n: int) -> H2Series:
    return kernel(KernelSpec(w, 0), n)


def series_of_mobius(f: MobiusMap, n: int) -> H2Series:
    """Taylor expansion of a linear fractional map about 0.

    Requires the pole (if any) to lie outside the closed unit disk; the
    coefficients then decay geometrically with ratio 1/|pole|.  This is
    column 1 of ``backend.power_columns``, which enforces the pole rule.
    """
    return H2Series(backend.power_columns(f.coefficients, n, 2)[:, 1])


# ``multiply`` has no caller in the package: the tests use it as an oracle for
# the closed-form series, and perfbench traces it by name.


def multiply(f: H2Series, g: H2Series) -> H2Series:
    """Truncated Cauchy product at the smaller of the two truncations."""
    n = min(f.truncation, g.truncation)
    return H2Series(backend.cauchy_product(f.coeffs, g.coeffs, n))


def identity_id_check(phi: MobiusMap, z):
    """Residual of 1-|phi(z)|^2 = (1-|w|^2)(1-|z|^2)/|1-conj(w)z|^2, w = phi^{-1}(0).

    Holds exactly for disk automorphisms; raises for anything else.  z is a
    point of the open disk or an array of them, and the residual has its
    shape; the automorphism test runs once for the whole array.  An
    automorphism's pole lies outside the closed disk, so phi is evaluated
    directly on the open disk, and points off it are refused.
    """
    if not is_automorphism(phi):
        raise DomainError("identity check requires a disk automorphism")
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.abs(z) < 1):
        raise DomainError("identity check points must lie in the open disk")
    w = apply(phi.inverse(), 0.0).finite
    lhs = 1.0 - np.abs((phi.a * z + phi.b) / (phi.c * z + phi.d)) ** 2
    rhs = (1.0 - abs(w) ** 2) * (1.0 - np.abs(z) ** 2) / np.abs(1.0 - w.conjugate() * z) ** 2
    return np.abs(lhs - rhs)
