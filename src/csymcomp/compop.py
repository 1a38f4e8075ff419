"""Matrix representations of composition operators in the monomial basis.

The operator f -> f o phi is compressed to the span of the first N
monomials: column n holds the truncated coefficients of phi**n.
``CompositionOperator`` applies it and its adjoint without the matrix.  The
classical adjoint identities on reproducing kernels and on the
e_k = K_a phi_a^k family serve as residual oracles for the construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import DomainError, NotSelfMapError
from .hardy import H2Series, KernelSpec, kernel
from .mobius import (
    MobiusMap,
    classify,
    derivative_at,
    involution,
    is_disk_selfmap,
    second_derivative_at,
)


class CompositionOperator:
    """The compression M of C_phi to truncation N, applied without forming M.

    ``apply(fs)`` is the first N coefficients of f o phi for each f in fs, of
    any lengths; ``apply_adjoint(fs)`` is M^H applied to the first N
    coefficients of each f.  Each runs one pass for all of fs.  ``powers`` is
    the N x (p + 1) block of phi**0 .. phi**p that the passes use.
    """

    def __init__(self, phi: MobiusMap, n: int):
        if not is_disk_selfmap(phi):
            raise NotSelfMapError("composition symbol must map the disk into itself")
        self.phi = phi
        self.truncation = n
        self._apply, self._adjoint, self.powers = backend.composer(phi.coefficients, n)

    def apply(self, fs: Sequence[H2Series]) -> list[H2Series]:
        width = max(f.truncation for f in fs)
        return [H2Series(row) for row in self._apply([f.extended(width).coeffs for f in fs])]

    def apply_adjoint(self, fs: Sequence[H2Series]) -> list[H2Series]:
        n = self.truncation
        return [H2Series(row) for row in self._adjoint([f.extended(n).coeffs for f in fs])]


@dataclass
class OperatorMatrix:
    """Dense truncation M of a composition operator, the conjugation search's input."""

    data: np.ndarray

    @property
    def truncation(self) -> int:
        return self.data.shape[0]


def matrix_of_composition(phi: MobiusMap, n: int) -> OperatorMatrix:
    """Column k = coefficients of phi**k, from the Mobius-power recurrence."""
    if not is_disk_selfmap(phi):
        raise NotSelfMapError("composition symbol must map the disk into itself")
    return OperatorMatrix(backend.power_columns(phi.coefficients, n, n))


def involution_powers(a: complex, exponents, n: int) -> list[H2Series]:
    """phi_a^e at truncation n for each e in exponents, from one column build."""
    cols = backend.power_columns(involution(a).coefficients, n, max(exponents) + 1)
    return [H2Series(cols[:, e]) for e in exponents]


def adjoint_kernel_checks(t: CompositionOperator):
    """Residuals of the three adjoint identities at the interior fixed point.

    ``t`` is the operator of phi = ``t.phi``.  For phi(a) = a with |a| < 1 the adjoint
    fixes K_a, scales the first derivative kernel by conj(phi'(a)), and acts
    on the second derivative kernel by conj(phi'(a))^2 plus a conj(phi''(a))
    multiple of the first.  a is the ``center`` of phi's ``classify``;
    DomainError if phi has none.
    """
    a = classify(t.phi).center
    if a is None:
        raise DomainError("map has no fixed point in the open disk")
    n = t.truncation
    d1 = derivative_at(t.phi, a).conjugate()
    d2 = second_derivative_at(t.phi, a).conjugate()
    k0 = kernel(KernelSpec(a, 0), n)
    k1 = kernel(KernelSpec(a, 1), n)
    k2 = kernel(KernelSpec(a, 2), n)
    c0, c1, c2 = t.apply_adjoint([k0, k1, k2])
    r1 = (c0 - k0).norm()
    r2 = (c1 - d1 * k1).norm()
    r3 = (c2 - (d1**2) * k2 - d2 * k1).norm()
    return r1, r2, r3


def lemma_star_s_check(a: complex, n: int) -> list[float]:
    """Residuals of the involution adjoint action on monomials.

    Checks C*1 = K_a and C*z^(k+1) = e_(k+1) - a e_k for k < 6, with C the
    adjoint of the composition by phi_a, an automorphism for |a| < 1.
    C*z^j is the conjugate of row j of the matrix of C, so only rows 0..6
    are built.  e_k = K_a phi_a^k is (phi_a^k - conj(a) phi_a^(k+1))/(1-|a|^2),
    since K_a = (1 - conj(a) phi_a)/(1-|a|^2).
    """
    a = complex(a)
    k_max = 6
    rows = backend.power_columns(involution(a).coefficients, k_max + 1, n).conj()
    rows[n:] = 0.0  # z^j with j >= n is zero at truncation n
    p = involution_powers(a, range(k_max + 2), n)
    e = [(p[k] - a.conjugate() * p[k + 1]) * (1 / (1 - abs(a) ** 2)) for k in range(k_max + 1)]
    out = [(H2Series(rows[0]) - e[0]).norm()]
    for k in range(k_max):
        out.append((H2Series(rows[k + 1]) - (e[k + 1] - a * e[k])).norm())
    return out

