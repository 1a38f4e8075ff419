"""Truncated composition operator matrices and adjoints."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from csymcomp.backend import _baby_steps, _fft_length, composer, power_columns
from csymcomp.compop import (
    CompositionOperator,
    adjoint_kernel_checks,
    involution_powers,
    lemma_star_s_check,
    matrix_of_composition,
)
from csymcomp.errors import ExpansionDomainError, NotSelfMapError
from csymcomp.hardy import (
    H2Series,
    inner_product,
    multiply,
    reproducing_kernel,
    series_of_mobius,
)
from csymcomp.mobius import MobiusMap, elliptic, involution, rotation

from helpers import evaluate

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
    for g in (H2Series(matrix_of_composition(phi, n).data @ f.coeffs), *CompositionOperator(phi, n).apply([f])):
        assert evaluate(g, z) == pytest.approx(evaluate(f, phi(z).finite), abs=1e-10)
    # f longer than N: the operator gives the first N coefficients of f o phi,
    # which read every coefficient of f, as the first N rows of a wider matrix do
    f = H2Series(np.ones(40))
    (g,) = CompositionOperator(phi, 16).apply([f])
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
    (image,), (coimage,) = op.apply([H2Series(x)]), op.apply_adjoint([H2Series(x)])
    for got, want in ((image, m @ x), (coimage, m.conj().T @ x)):
        assert got.truncation == n
        assert np.linalg.norm(got.coeffs - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [5, 64])
@pytest.mark.parametrize("r", [1, 2, 3, 6])
@pytest.mark.parametrize("length", ["5", "180", "n", "3n"])
def test_stacked_pass_matches_rows_and_dense_matrix(n, r, length):
    # at n = 5, p = 4 < 6 = r: a stack of six rows takes one slice per baby
    # product and the adjoint flushes every step; n = 64 gives p = 16
    assert _baby_steps(5) == 4
    phi = elliptic(OMEGA3, 0.6 + 0.5j)
    op = CompositionOperator(phi, n)
    width = {"5": 5, "180": 180, "n": n, "3n": 3 * n}[length]
    rng = np.random.default_rng([n, r, width])
    fs = [H2Series(rng.standard_normal(width) + 1j * rng.standard_normal(width)) for _ in range(r)]
    m = matrix_of_composition(phi, max(n, width)).data[:n]  # the first n rows of a wider M
    for f, image, coimage in zip(fs, op.apply(fs), op.apply_adjoint(fs)):
        (alone,), (coalone,) = op.apply([f]), op.apply_adjoint([f])
        x = f.extended(n).coeffs
        for got, row, want in ((image, alone, m[:, :width] @ f.coeffs), (coimage, coalone, m[:, :n].conj().T @ x)):
            assert got.truncation == n
            assert np.linalg.norm(got.coeffs - row.coeffs) <= 1e-14 * np.linalg.norm(row.coeffs)
            assert np.linalg.norm(got.coeffs - want) <= 1e-12 * np.linalg.norm(want)


def test_composer_runs_on_the_numpy_1_fft_signature(monkeypatch):
    # pyproject allows numpy >= 1.24, whose fft and ifft take no out=
    fft, ifft = np.fft.fft, np.fft.ifft
    monkeypatch.setattr(np.fft, "fft", lambda a, n=None, axis=-1, norm=None: fft(a, n, axis, norm))
    monkeypatch.setattr(np.fft, "ifft", lambda a, n=None, axis=-1, norm=None: ifft(a, n, axis, norm))
    n, phi = 64, elliptic(OMEGA3, 0.6 + 0.5j)
    op = CompositionOperator(phi, n)
    m = matrix_of_composition(phi, 3 * n).data[:n]
    rng = np.random.default_rng(1)
    fs = [H2Series(rng.standard_normal(3 * n) + 0j) for _ in range(2)]  # 12 slices of p = 16
    for f, image, coimage in zip(fs, op.apply(fs), op.apply_adjoint([H2Series(f.coeffs[:n]) for f in fs])):
        assert np.linalg.norm(image.coeffs - m @ f.coeffs) <= 1e-12 * np.linalg.norm(image.coeffs)
        want = m[:, :n].conj().T @ f.coeffs[:n]
        assert np.linalg.norm(coimage.coeffs - want) <= 1e-12 * np.linalg.norm(want)


def _traced_peak(fn, x) -> int:
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_pass_memory_stays_at_p_n():
    # a stack of r rows may add to the one-row peak its r outputs and, as slack, three
    # FFT-length buffers per row for the giant steps, but no more baby products:
    # at n = 4685 (p = 63) one n x p product is 4.7 MB, and r = 6 unbounded ones 28 MB
    n, r = 4685, 6
    apply, adjoint, _ = composer(elliptic(OMEGA3, 0.95).coefficients, n)
    slack = 3 * r * _fft_length(2 * n - 1)
    rng = np.random.default_rng(4685)
    x = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    for fn in (apply, adjoint):
        one, stacked = _traced_peak(fn, x[:1]), _traced_peak(fn, x)
        assert stacked <= one + 16 * (r * n + slack), fn.__name__


def test_operator_holds_the_block_of_its_passes():
    # phi**0 .. phi**p, the block the passes use, is the callers' too: no one builds it again
    phi, n = elliptic(OMEGA3, 0.5), 512
    t = CompositionOperator(phi, n)
    p = _baby_steps(n)
    assert np.array_equal(t.powers, power_columns(phi.coefficients, n, p + 1))
    assert np.allclose(t.powers, matrix_of_composition(phi, n).data[:, : p + 1], atol=1e-15)


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
    (got,) = CompositionOperator(phi, 16).apply_adjoint([H2Series(x)])
    assert np.allclose(got.coeffs, m.data.conj().T @ x)


def test_adjoint_reproduces_kernel_covariance():
    # C_phi^* K_w = K_{phi(w)} holds exactly; truncation error only in the tail
    phi = involution(0.5)
    n = 512
    m = CompositionOperator(phi, n)
    w = 0.3 + 0.1j
    (got,) = m.apply_adjoint([reproducing_kernel(w, n)])
    want = reproducing_kernel(phi(w).finite, n)
    assert (got - want).norm() < 1e-11


# -- adjoint identities on kernel and derivative-kernel test functions ----------


@pytest.mark.parametrize("a", [0.3, 0.5, 0.5 + 0.2j, 0.7])
def test_adjoint_kernel_checks_involution(a):
    r1, r2, r3 = adjoint_kernel_checks(CompositionOperator(involution(a), 512))
    assert max(r1, r2, r3) < 1e-7


def test_adjoint_kernel_checks_elliptic3():
    r1, r2, r3 = adjoint_kernel_checks(CompositionOperator(elliptic(OMEGA3, 0.5), 512))
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
    duals = [e[k] - a * e[k - 1] if k else e[0] for k in range(len(e))]
    for k, (vec, image) in enumerate(zip(powers, m.apply(powers))):
        assert (image - OMEGA3**k * vec).norm() < 1e-8
    for k, (dual, image) in enumerate(zip(duals, m.apply_adjoint(duals))):
        assert (image - OMEGA3.conjugate() ** k * dual).norm() < 1e-8


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
    (image,) = CompositionOperator(phi, n).apply([sigma])
    assert (image - b * sigma).norm() < 1e-10


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
