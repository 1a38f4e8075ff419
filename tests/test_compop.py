"""Truncated composition operator matrices, adjoints, and spectra."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from csymcomp.backend import power_columns
from csymcomp.compop import (
    CompositionOperator,
    adjoint_kernel_checks,
    eigen_decompose,
    involution_powers,
    lemma_star_s_check,
    matrix_of_composition,
)
from csymcomp.errors import ConvergenceError, ExpansionDomainError, NotSelfMapError
from csymcomp.hardy import (
    H2Series,
    evaluate,
    inner_product,
    multiply,
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
    m = matrix_of_composition(MobiusMap(0.5, 0.25, 0, 1), 100).data
    assert np.all(np.tril(m, -1) == 0.0)  # exact zeros below the diagonal
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

    # squares take the antidiagonal sweep; every block with k < n, down to
    # 2 x 1, doubles along its rows, and every block with k > n along its columns
    shapes = [(64, 64), (64, 4), (512, 21), (8, 64), (1, 1), (1, 9), (9, 1), (4, 1), (0, 5), (5, 0), (0, 0)]
    shapes += [(7, 7), (8, 8), (9, 9), (15, 15), (16, 16), (17, 17), (17, 40), (40, 17), (100, 33), (512, 178)]
    shapes += [(2, 1), (3, 1)]
    for n, k in shapes:
        got = power_columns(phi.coefficients, n, k)
        assert got.shape == (n, k)
        assert np.max(np.abs(got - chain(n, k)), initial=0.0) <= 1e-13, (n, k)
    m64 = matrix_of_composition(phi, 64).data
    assert np.max(np.abs(m64 - chain(64, 64))) <= 1e-13
    # entry (m, j) does not depend on the truncation, so a wider matrix can
    # stand in for a narrower one (schedule_search pads its optimum on it)
    for n in (65, 80, 96):
        assert np.array_equal(matrix_of_composition(phi, n).data[:64, :64], m64), n


def test_matrix_matches_mpmath_reference():
    # oracle: phi**k solves (cz + d)(az + b) g' = k (ad - bc) g with
    # g(0) = (b/d)**k, a recurrence down each column that shares nothing
    # with the sweep; at 50 digits its rounding stays far below 1e-13
    phi = elliptic(OMEGA3, 0.99)
    n = 128
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpc(z.real, z.imag) for z in phi.coefficients)
        p0, p1, p2, delta = b * d, a * d + b * c, a * c, a * d - b * c
        want = np.empty((n, n), dtype=complex)
        for k in range(n):
            g = [(b / d) ** k, k * delta * (b / d) ** k / p0]
            for m in range(1, n - 1):
                g.append(((k * delta - p1 * m) * g[m] - p2 * (m - 1) * g[m - 1]) / (p0 * (m + 1)))
            want[:, k] = [complex(x) for x in g]
    assert np.max(np.abs(matrix_of_composition(phi, n).data - want)) <= 1e-13


def test_matrix_applies_like_pointwise_composition():
    phi = involution(0.3 + 0.2j)
    n = 512
    f = H2Series(np.array([1.0, -0.5, 2.0, 1j], dtype=complex)).extended(n)
    z = 0.4 - 0.3j
    for g in (H2Series(matrix_of_composition(phi, n).data @ f.coeffs), CompositionOperator(phi, n).apply(f)):
        assert evaluate(g, z) == pytest.approx(evaluate(f, phi(z).finite), abs=1e-10)
    # f longer than N: the operator gives the first N coefficients of f o phi,
    # which read every coefficient of f, as the first N rows of a wider matrix do
    f = H2Series(np.ones(40))
    g = CompositionOperator(phi, 16).apply(f)
    assert np.max(np.abs(g.coeffs - (matrix_of_composition(phi, 40).data @ f.coeffs)[:16])) <= 1e-14
    z = 0.1
    assert evaluate(g, z) == pytest.approx(evaluate(f, phi(z).finite), abs=1e-13)
    assert abs(evaluate(f.extended(16), phi(z).finite) - evaluate(f, phi(z).finite)) > 1e-9


# at n = 5 the composer's block is 5 x 5 and swept, at 40 it is 40 x 13 (p = 12)
@pytest.mark.parametrize("n", [5, 40, 64, 512, 2048])
@pytest.mark.parametrize(
    "phi",
    [
        elliptic(OMEGA3, 0.5),
        elliptic(OMEGA3, 0.95),
        elliptic(OMEGA3, 0.6 + 0.5j),
        involution(0.3 + 0.2j),
        MobiusMap(0.5, 0.25 + 0.1j, 0, 1),  # the dilate z/2 + a/2: c = 0
        MobiusMap(0.5, 0, -0.3, 1),  # bz/(1 - cz)
    ],
    ids=["elliptic3_0.5", "elliptic3_0.95", "elliptic3_0.6+0.5i", "involution", "dilate", "bz_over_1_minus_cz"],
)
def test_operator_matches_dense_matrix(phi, n):
    m = matrix_of_composition(phi, n).data
    op = CompositionOperator(phi, n)
    assert op.truncation == n
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for got, want in ((op.apply(H2Series(x)), m @ x), (op.apply_adjoint(H2Series(x)), m.conj().T @ x)):
        assert got.truncation == n
        assert np.linalg.norm(got.coeffs - want) <= 1e-12 * np.linalg.norm(want)


def test_matrix_rejects_non_selfmap():
    with pytest.raises(NotSelfMapError):
        matrix_of_composition(MobiusMap(2, 0, 0, 1), 8)
    with pytest.raises(NotSelfMapError):
        CompositionOperator(MobiusMap(2, 0, 0, 1), 8)


def test_adjoint_is_conjugate_transpose():
    phi = involution(0.4 + 0.1j)
    m = matrix_of_composition(phi, 16)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.allclose(CompositionOperator(phi, 16).apply_adjoint(H2Series(x)).coeffs, m.data.conj().T @ x)


def test_adjoint_reproduces_kernel_covariance():
    # C_phi^* K_w = K_{phi(w)} holds exactly; truncation error only in the tail
    phi = involution(0.5)
    n = 512
    m = CompositionOperator(phi, n)
    w = 0.3 + 0.1j
    got = m.apply_adjoint(reproducing_kernel(w, n))
    want = reproducing_kernel(phi(w).finite, n)
    assert (got - want).norm() < 1e-11


# -- adjoint identities on kernel and derivative-kernel test functions ----------


@pytest.mark.parametrize("a", [0.3, 0.5, 0.5 + 0.2j, 0.7])
def test_adjoint_kernel_checks_involution(a):
    r1, r2, r3 = adjoint_kernel_checks(involution(a), CompositionOperator(involution(a), 512))
    assert max(r1, r2, r3) < 1e-7


def test_adjoint_kernel_checks_elliptic3():
    phi = elliptic(OMEGA3, 0.5)
    r1, r2, r3 = adjoint_kernel_checks(phi, CompositionOperator(phi, 512))
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
    e = [multiply(reproducing_kernel(a, n), p) for p in involution_powers(a, range(4), n)]
    for k in range(4):
        assert e[k].norm_sq() == pytest.approx(1 / (1 - abs(a) ** 2), abs=1e-10)
    for j in range(1, 4):
        for k in range(j):
            assert abs(inner_product(e[j], e[k])) < 1e-10


def test_order3_eigenspace_residuals():
    # with phi = phi_a o (w z) o phi_a and w a primitive cube root of unity,
    # phi_a^k is an eigenvector of C_phi for w^k, and e_k - a e_(k-1) one of
    # its adjoint for conj(w)^k
    a, n = 0.5, 512
    m = CompositionOperator(elliptic(OMEGA3, a), n)
    powers = involution_powers(a, range(7), n)
    e = [multiply(reproducing_kernel(a, n), p) for p in powers]
    for k, vec in enumerate(powers):
        assert (m.apply(vec) - OMEGA3**k * vec).norm() < 1e-8
        dual = e[k] - a * e[k - 1] if k else e[0]
        assert (m.apply_adjoint(dual) - OMEGA3.conjugate() ** k * dual).norm() < 1e-8


# -- spectra ---------------------------------------------------------------------


def test_eigenvalues_of_affine_symbol_are_derivative_powers():
    # phi(z) = z/2 + 1/4 fixes 1/2; spectrum of the truncation is {2^-n}
    rep = eigen_decompose(matrix_of_composition(MobiusMap(0.5, 0.25, 0, 1), 64))
    got = np.sort(np.abs(rep.eigenvalues))[::-1]
    want = 0.5 ** np.arange(64)
    assert np.allclose(got, want, atol=1e-9)


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
    assert (CompositionOperator(phi, n).apply(sigma) - b * sigma).norm() < 1e-10


@pytest.mark.parametrize(
    "coeffs",
    [(1, 0, 1, 0.5), (1, 0, 1, 1), (0.5, 0.49999999999, 1, 1.0000000000001), (1, 1, 0, 0)],
    ids=["pole_inside", "pole_on_circle", "pole_within_margin", "d_zero"],
)
def test_power_columns_rejects_pole_in_closed_disk(coeffs):
    # the sweep, the row doubling and the column doubling all refuse it
    for n, k in [(8, 8), (64, 4), (4, 64)]:
        with pytest.raises(ExpansionDomainError):
            power_columns(coeffs, n, k)
