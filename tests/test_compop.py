"""Truncated composition operator matrices, adjoints, and spectra."""

import cmath
import math

import numpy as np
import pytest

from csymcomp.backend import power_columns
from csymcomp.compop import (
    OperatorMatrix,
    adjoint,
    adjoint_kernel_checks,
    e_function,
    eigen_decompose,
    eigenspace_check_order3,
    lemma_star_s_check,
    matrix_of_composition,
    point_spectrum_formula,
    schroeder_eigenrelation_residual,
)
from csymcomp.errors import ConvergenceError, ExpansionDomainError, NotSelfMapError
from csymcomp.hardy import (
    H2Series,
    evaluate,
    inner_product,
    reproducing_kernel,
    series_of_mobius,
)
from csymcomp.mobius import MobiusMap, elliptic, involution, rotation

OMEGA3 = cmath.exp(2j * math.pi / 3)


# -- matrix construction --------------------------------------------------------


def test_matrix_of_rotation_is_diagonal():
    m = matrix_of_composition(rotation(1j), 8)
    want = np.diag(1j ** np.arange(8))
    assert np.allclose(m.data, want)


def test_matrix_of_dilation_translation_is_upper_triangular():
    m = matrix_of_composition(MobiusMap(0.5, 0.25, 0, 1), 16).data
    assert np.allclose(np.tril(m, -1), 0.0)
    # column n holds the binomial expansion of (z/2 + 1/4)^n
    assert m[0, 0] == 1.0
    assert m[0, 1] == pytest.approx(0.25)
    assert m[1, 1] == pytest.approx(0.5)
    assert m[1, 2] == pytest.approx(2 * 0.5 * 0.25)


@pytest.mark.parametrize(
    "phi",
    [
        rotation(cmath.exp(0.7j)),
        MobiusMap(0.5, 0.25 + 0.1j, 0, 1),  # sz + c: the c = 0 path
        involution(0.16),  # the high powers underflow to subnormals
        elliptic(OMEGA3, 0.7 + 0.2j),
        elliptic(OMEGA3, 0.99),
        MobiusMap(0.5, 0, -0.3, 1),  # bz/(1 - cz)
    ],
    ids=["rotation", "affine", "involution_0.16", "elliptic3", "elliptic3_0.99", "bz_over_1_minus_cz"],
)
def test_matrix_column_is_symbol_power(phi):
    # oracle: column k is phi**k by a chain of truncated convolutions
    s = series_of_mobius(phi, 512).coeffs

    def chain(n, k):
        want = np.zeros((n, k), dtype=complex)
        if n and k:
            want[0, 0] = 1.0
            for j in range(1, k):
                want[:, j] = np.convolve(want[:, j - 1], s[:n])[:n]
        return want

    # power_columns, not matrix_of_composition: is_disk_selfmap misjudges
    # elliptic3 at |a| = 0.99 (ROADMAP item 4).  The 64 x 64 square and the
    # 1 x 1 edge take the antidiagonal sweep; 64 x 4, 512 x 21, 9 x 1 and
    # 4 x 1 double along rows, 8 x 64 and 1 x 9 along columns.
    shapes = [(64, 64), (64, 4), (512, 21), (8, 64), (1, 1), (1, 9), (9, 1), (4, 1), (0, 5), (5, 0), (0, 0)]
    for n, k in shapes:
        got = power_columns(phi.coefficients, n, k)
        assert got.shape == (n, k)
        assert np.max(np.abs(got - chain(n, k)), initial=0.0) <= 1e-13, (n, k)


def test_matrix_applies_like_pointwise_composition():
    phi = involution(0.3 + 0.2j)
    n = 512
    m = matrix_of_composition(phi, n)
    f = H2Series(np.array([1.0, -0.5, 2.0, 1j], dtype=complex)).extended(n)
    g = m.apply(f)
    z = 0.4 - 0.3j
    assert evaluate(g, z) == pytest.approx(evaluate(f, phi(z).finite), abs=1e-10)


def test_matrix_rejects_non_selfmap():
    with pytest.raises(NotSelfMapError):
        matrix_of_composition(MobiusMap(2, 0, 0, 1), 8)


def test_adjoint_is_conjugate_transpose():
    m = matrix_of_composition(involution(0.4 + 0.1j), 16)
    a = adjoint(m)
    assert np.allclose(a.data, m.data.conj().T)


def test_adjoint_reproduces_kernel_covariance():
    # C_phi^* K_w = K_{phi(w)} holds exactly; truncation error only in the tail
    phi = involution(0.5)
    n = 512
    a = adjoint(matrix_of_composition(phi, n))
    w = 0.3 + 0.1j
    got = a.apply(reproducing_kernel(w, n))
    want = reproducing_kernel(phi(w).finite, n)
    assert (got - want).norm() < 1e-11


# -- adjoint identities on kernel and derivative-kernel test functions ----------


@pytest.mark.parametrize("a", [0.3, 0.5, 0.5 + 0.2j, 0.7])
def test_adjoint_kernel_checks_involution(a):
    r1, r2, r3 = adjoint_kernel_checks(involution(a), 512)
    assert max(r1, r2, r3) < 1e-7


def test_adjoint_kernel_checks_elliptic3():
    r1, r2, r3 = adjoint_kernel_checks(elliptic(OMEGA3, 0.5), 512)
    assert max(r1, r2, r3) < 1e-7


def test_lemma_star_s_identities():
    for a in (0.3, 0.5 + 0.2j):
        residuals = lemma_star_s_check(a, 512)
        assert max(residuals) < 1e-8


def test_e_function_norms_and_orthogonality():
    # e_k = K_a phi_a^k form an orthogonal family with squared norm 1/(1-|a|^2):
    # multiplication by the inner function phi_a is an isometry, and
    # <e_j, e_0> = (K_a phi_a^j)(a) = 0 for j >= 1 since phi_a(a) = 0
    a = 0.5
    n = 1024
    e = [e_function(a, k, n) for k in range(4)]
    for k in range(4):
        assert e[k].norm_sq() == pytest.approx(1 / (1 - abs(a) ** 2), abs=1e-10)
    for j in range(1, 4):
        for k in range(j):
            assert abs(inner_product(e[j], e[k])) < 1e-10


def test_order3_eigenspace_residuals():
    fwd, adj = eigenspace_check_order3(0.5, 512)
    assert max(fwd) < 1e-8
    assert max(adj) < 1e-8


# -- spectra ---------------------------------------------------------------------


def test_eigenvalues_of_affine_symbol_are_derivative_powers():
    # phi(z) = z/2 + 1/4 fixes 1/2; spectrum of the truncation is {2^-n}
    rep = eigen_decompose(matrix_of_composition(MobiusMap(0.5, 0.25, 0, 1), 64))
    got = np.sort(np.abs(rep.eigenvalues))[::-1]
    want = 0.5 ** np.arange(64)
    assert np.allclose(got, want, atol=1e-9)


def test_point_spectrum_formula_matches_eigen_decompose():
    phi = MobiusMap(0.5, 0.25, 0, 1)
    formula = point_spectrum_formula(phi, 8)
    rep = eigen_decompose(matrix_of_composition(phi, 64))
    got = sorted(np.abs(rep.eigenvalues))[::-1][:8]
    assert np.allclose(sorted(np.abs(formula))[::-1], got, atol=1e-9)


def test_eigen_decompose_sorted_deterministically():
    m = matrix_of_composition(involution(0.5), 32)
    r1 = eigen_decompose(m)
    r2 = eigen_decompose(m)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)


def test_eigen_residual_bound_enforced():
    m = matrix_of_composition(involution(0.5), 32)
    with pytest.raises(ConvergenceError) as exc:
        eigen_decompose(m, tol=1e-30)
    assert exc.value.partial is not None


def test_schroeder_eigenrelation():
    # sigma(z) = z/(1 - eta z) satisfies sigma o phi = b sigma
    # for phi(z) = bz/(1-cz) with eta = c/(1-b)
    b, c = 0.5, 0.25
    phi = MobiusMap(b, 0, -c, 1)
    eta = c / (1 - b)
    n = 256
    coeffs = np.zeros(n, dtype=complex)
    coeffs[1:] = eta ** np.arange(n - 1)
    sigma = H2Series(coeffs)
    assert schroeder_eigenrelation_residual(phi, sigma, b) < 1e-10


@pytest.mark.parametrize("coeffs", [(1, 0, 1, 0.5), (1, 0, 1, 1), (1, 1, 0, 0)], ids=["pole_inside", "pole_on_circle", "d_zero"])
def test_power_columns_rejects_pole_in_closed_disk(coeffs):
    # the sweep, the row doubling and the column doubling all refuse it
    for n, k in [(8, 8), (64, 4), (4, 64)]:
        with pytest.raises(ExpansionDomainError):
            power_columns(coeffs, n, k)
