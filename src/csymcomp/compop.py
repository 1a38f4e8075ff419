"""Matrix representations of composition operators in the monomial basis.

The operator f -> f o phi is compressed to the span of the first N
monomials: column n holds the truncated coefficients of phi**n.
``CompositionOperator`` applies it and its adjoint without the matrix.  The
classical adjoint identities on reproducing kernels and on the
e_k = K_a phi_a^k family serve as residual oracles for the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import ConvergenceError, NotSelfMapError
from .hardy import H2Series, KernelSpec, kernel
from .mobius import (
    MobiusMap,
    derivative_at,
    interior_fixed_point,
    involution,
    is_disk_selfmap,
    second_derivative_at,
)


class CompositionOperator:
    """The compression M of C_phi to truncation N, applied without forming M.

    ``apply(f)`` is the first N coefficients of f o phi, f of any length;
    ``apply_adjoint(f)`` is M^H applied to the first N coefficients of f.
    """

    def __init__(self, phi: MobiusMap, n: int):
        if not is_disk_selfmap(phi):
            raise NotSelfMapError("composition symbol must map the disk into itself")
        self.phi = phi
        self.truncation = n
        self._apply, self._adjoint = backend.composer(phi.coefficients, n)

    def apply(self, f: H2Series) -> H2Series:
        return H2Series(self._apply(f.coeffs))

    def apply_adjoint(self, f: H2Series) -> H2Series:
        return H2Series(self._adjoint(f.extended(self.truncation).coeffs))


@dataclass
class OperatorMatrix:
    """Dense truncation M of a composition operator."""

    data: np.ndarray

    @property
    def truncation(self) -> int:
        return self.data.shape[0]

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass
class EigenReport:
    """Eigenpairs sorted by |lambda| descending, then by argument."""

    eigenvalues: np.ndarray
    eigenvectors: list[H2Series]
    residuals: np.ndarray
    matrix_norm: float = field(default=0.0)


def matrix_of_composition(phi: MobiusMap, n: int) -> OperatorMatrix:
    """Column k = coefficients of phi**k, from the Mobius-power recurrence."""
    if not is_disk_selfmap(phi):
        raise NotSelfMapError("composition symbol must map the disk into itself")
    return OperatorMatrix(backend.power_columns(phi.coefficients, n, n))


def involution_powers(a: complex, exponents, n: int) -> list[H2Series]:
    """phi_a^e at truncation n for each e in exponents, from one column build."""
    cols = backend.power_columns(involution(a).coefficients, n, max(exponents) + 1)
    return [H2Series(cols[:, e]) for e in exponents]


def adjoint_kernel_checks(phi: MobiusMap, t: CompositionOperator):
    """Residuals of the three adjoint identities at the interior fixed point.

    ``t`` is the operator of phi.  For phi(a) = a with |a| < 1 the adjoint
    fixes K_a, scales the first derivative kernel by conj(phi'(a)), and acts
    on the second derivative kernel by conj(phi'(a))^2 plus a conj(phi''(a))
    multiple of the first.
    """
    a = interior_fixed_point(phi)
    n = t.truncation
    d1 = derivative_at(phi, a).conjugate()
    d2 = second_derivative_at(phi, a).conjugate()
    k0 = kernel(KernelSpec(a, 0), n)
    k1 = kernel(KernelSpec(a, 1), n)
    k2 = kernel(KernelSpec(a, 2), n)
    r1 = (t.apply_adjoint(k0) - k0).norm()
    r2 = (t.apply_adjoint(k1) - d1 * k1).norm()
    r3 = (t.apply_adjoint(k2) - (d1**2) * k2 - d2 * k1).norm()
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


def eigen_decompose(t: OperatorMatrix, tol: float = 1e-8) -> EigenReport:
    """All eigenpairs of the dense matrix with a residual guarantee.

    Uses the LAPACK nonsymmetric eigensolver; pairs are sorted by
    |lambda| descending, then by argument, so reports are reproducible.
    Raises ConvergenceError (carrying any partial result) if the solver
    fails or a residual exceeds tol times the Frobenius norm.
    """
    fro = t.frobenius_norm()
    try:
        vals, vecs = np.linalg.eig(t.data)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    residuals = np.linalg.norm(t.data @ vecs - vecs * vals, axis=0)
    report = EigenReport(
        eigenvalues=vals,
        eigenvectors=[H2Series(vecs[:, i]) for i in range(vecs.shape[1])],
        residuals=residuals,
        matrix_norm=fro,
    )
    if np.any(residuals > tol * max(fro, 1e-300)):
        raise ConvergenceError(
            f"eigenpair residual exceeds {tol} * ||T||_F", partial=report
        )
    return report

