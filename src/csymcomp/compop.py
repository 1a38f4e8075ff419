"""Matrix representations of composition operators in the monomial basis.

The operator f -> f o phi is compressed to the span of the first N
monomials: column n holds the truncated coefficients of phi**n.  The
adjoint is the conjugate transpose.  The classical adjoint identities on
reproducing kernels and on the e_k = K_a phi_a^k family serve as
residual oracles for the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import ConvergenceError, DomainError, NotSelfMapError
from .hardy import (
    H2Series,
    KernelSpec,
    kernel,
    multiply,
    reproducing_kernel,
)
from .mobius import (
    DEFAULT_TOL,
    MobiusMap,
    derivative_at,
    elliptic,
    interior_fixed_point,
    involution,
    is_disk_selfmap,
    second_derivative_at,
)


@dataclass
class OperatorMatrix:
    """Dense truncation of a composition operator (or adjoint)."""

    data: np.ndarray
    symbol: MobiusMap | None = None

    @property
    def truncation(self) -> int:
        return self.data.shape[0]

    def apply(self, f: H2Series) -> H2Series:
        return H2Series(self.data @ f.extended(self.truncation).coeffs)

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
    return OperatorMatrix(backend.power_columns(phi.coefficients, n, n), symbol=phi)


def adjoint(t: OperatorMatrix) -> OperatorMatrix:
    """The conjugate transpose, as a transposed view of the conjugate."""
    return OperatorMatrix(t.data.conj().T, symbol=t.symbol)


def involution_powers(a: complex, exponents, n: int) -> list[H2Series]:
    """phi_a^e at truncation n for each e in exponents, from one column build."""
    cols = backend.power_columns(involution(a).coefficients, n, max(exponents) + 1)
    return [H2Series(cols[:, e]) for e in exponents]


def e_function(a: complex, k: int, n: int) -> H2Series:
    """e_k = K_a * phi_a^k; pairwise orthogonal with squared norm 1/(1-|a|^2)."""
    out = reproducing_kernel(a, n)
    if k:
        out = multiply(out, involution_powers(a, [k], n)[0])
    return out


def adjoint_kernel_checks(phi: MobiusMap, n: int, tol: float = DEFAULT_TOL):
    """Residuals of the three adjoint identities at the interior fixed point.

    For phi(a) = a with |a| < 1 the adjoint fixes K_a, scales the first
    derivative kernel by conj(phi'(a)), and acts on the second derivative
    kernel by conj(phi'(a))^2 plus a conj(phi''(a)) multiple of the first.
    """
    a = interior_fixed_point(phi, tol)
    mstar = adjoint(matrix_of_composition(phi, n))
    d1 = derivative_at(phi, a).conjugate()
    d2 = second_derivative_at(phi, a).conjugate()
    k0 = kernel(KernelSpec(a, 0), n)
    k1 = kernel(KernelSpec(a, 1), n)
    k2 = kernel(KernelSpec(a, 2), n)
    r1 = (mstar.apply(k0) - k0).norm()
    r2 = (mstar.apply(k1) - d1 * k1).norm()
    r3 = (mstar.apply(k2) - (d1**2) * k2 - d2 * k1).norm()
    return r1, r2, r3


def lemma_star_s_check(a: complex, n: int, k_max: int = 6) -> list[float]:
    """Residuals of the involution adjoint action on monomials.

    Checks C*1 = K_a and C*z^(k+1) = e_(k+1) - a e_k for k < k_max, with
    C the adjoint of the composition by phi_a.  C*z^j is the conjugate of
    row j of the matrix of C, so only rows 0..k_max are built.
    """
    a = complex(a)
    phi = involution(a)
    if not is_disk_selfmap(phi):
        raise NotSelfMapError("composition symbol must map the disk into itself")
    rows = backend.power_columns(phi.coefficients, k_max + 1, n).conj()
    rows[n:] = 0.0  # z^j with j >= n is zero at truncation n
    k_a = reproducing_kernel(a, n)
    e = [multiply(k_a, p) for p in involution_powers(a, range(k_max + 1), n)]
    out = [(H2Series(rows[0]) - e[0]).norm()]
    for k in range(k_max):
        out.append((H2Series(rows[k + 1]) - (e[k + 1] - a * e[k])).norm())
    return out


def eigenspace_check_order3(a: complex, n: int, k_max: int = 6):
    """Eigenvector residuals for the order-3 elliptic symbol centered at a.

    With phi = phi_a o (w z) o phi_a and w a primitive cube root of unity,
    phi_a^k is an eigenvector of the operator with eigenvalue w^k, and
    e_k - a e_(k-1) is an eigenvector of the adjoint with eigenvalue
    conj(w)^k.
    """
    a = complex(a)
    omega = np.exp(2j * np.pi / 3)
    phi = elliptic(omega, a)
    m = matrix_of_composition(phi, n)
    mstar = adjoint(m)
    powers = involution_powers(a, range(k_max + 1), n)
    k_a = reproducing_kernel(a, n)
    e = [multiply(k_a, p) for p in powers]
    fwd, adj = [], []
    for k, vec in enumerate(powers):
        fwd.append((m.apply(vec) - (omega**k) * vec).norm())
        dual = e[k] - a * e[k - 1] if k else e[0]
        adj.append((mstar.apply(dual) - (omega.conjugate() ** k) * dual).norm())
    return fwd, adj


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


def point_spectrum_formula(phi: MobiusMap, n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Powers of the multiplier at the interior fixed point: {phi'(a)^k, k < n}."""
    a = interior_fixed_point(phi, tol)
    lam = derivative_at(phi, a)
    return lam ** np.arange(n)


def schroeder_eigenrelation_residual(phi: MobiusMap, sigma: H2Series, b: complex) -> float:
    """||M(phi) sigma - b sigma|| at the truncation of sigma."""
    m = matrix_of_composition(phi, sigma.truncation)
    return (m.apply(sigma) - complex(b) * sigma).norm()
