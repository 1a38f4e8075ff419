"""Truncated power series arithmetic and reproducing kernels."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csymcomp.errors import DomainError, ExpansionDomainError
from csymcomp.hardy import (
    H2Series,
    KernelSpec,
    constant,
    evaluate,
    identity_id_check,
    inner_product,
    kernel,
    monomial,
    multiply,
    reciprocal,
    reproducing_kernel,
    series_of_mobius,
)
from csymcomp.mobius import MobiusMap, involution, rotation

N = 64

small_complex = st.builds(
    complex,
    st.floats(-0.6, 0.6, allow_nan=False),
    st.floats(-0.6, 0.6, allow_nan=False),
)

disk_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(0.0, 0.85),
    st.floats(0.0, 2 * math.pi),
)


def geometric(w, n=N):
    """Reference series 1/(1-wz) built directly."""
    return H2Series(w ** np.arange(n))


# -- series basics -------------------------------------------------------------


def test_monomial_and_constant():
    z3 = monomial(3, 8)
    assert z3.coeffs[3] == 1.0
    assert np.count_nonzero(z3.coeffs) == 1
    c = constant(2.5, 8)
    assert c.coeffs[0] == 2.5
    assert evaluate(c, 0.3) == pytest.approx(2.5)


def test_norm_is_coefficient_l2():
    f = H2Series(np.array([3.0, 4.0]))
    assert f.norm_sq() == pytest.approx(25.0)
    assert f.norm() == pytest.approx(5.0)


def test_arithmetic():
    f = H2Series(np.array([1.0, 2.0]))
    g = H2Series(np.array([0.5, -1.0, 7.0]))
    s = f + g
    assert s.coeffs[:2] == pytest.approx([1.5, 1.0])
    d = f - g
    assert d.coeffs[:2] == pytest.approx([0.5, 3.0])
    assert (2.0 * f).coeffs[1] == 4.0


@given(disk_points, disk_points)
def test_inner_product_of_kernels_is_szego(w, v):
    # <K_w, K_v> = K_w(v) = 1/(1 - v conj(w)), exactly summable
    kw = reproducing_kernel(w, 256)
    kv = reproducing_kernel(v, 256)
    got = inner_product(kw, kv)
    want = 1.0 / (1.0 - v * np.conj(w))
    assert got == pytest.approx(want, abs=1e-10)


def test_inner_product_conjugate_symmetry():
    f = H2Series(np.array([1 + 1j, 2.0, -1j]))
    g = H2Series(np.array([0.5, 1j]))
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))


# -- multiplication oracles ----------------------------------------------------


@given(disk_points, disk_points)
@settings(max_examples=40)
def test_multiply_geometric_series(w, v):
    # (1/(1-wz)) * (1/(1-vz)) has coefficients sum_{i+j=n} w^i v^j
    prod = multiply(geometric(w), geometric(v))
    want = np.array(
        [sum(w**i * v ** (k - i) for i in range(k + 1)) for k in range(N)]
    )
    assert np.allclose(prod.coeffs, want, atol=1e-9)


def test_multiply_against_polynomial_long_multiplication():
    f = H2Series(np.array([1.0, 2.0, 3.0]))
    g = H2Series(np.array([4.0, 5.0]))
    prod = multiply(f.extended(6), g.extended(6))
    assert prod.coeffs[:4] == pytest.approx([4.0, 13.0, 22.0, 15.0])


@given(disk_points, st.integers(1, 6))
@settings(max_examples=30)
def test_power_of_geometric_is_negative_binomial(w, k):
    # (1/(1-wz))^k has coefficients C(n+k-1, k-1) w^n
    p = constant(1.0, 40)
    for _ in range(k):
        p = multiply(p, geometric(w, 40))
    n = np.arange(40)
    want = np.array([math.comb(int(m) + k - 1, k - 1) for m in n]) * w**n
    assert np.allclose(p.coeffs, want, atol=1e-8)


def test_reciprocal_long_division_oracle():
    f = H2Series(np.array([2.0, 1.0, -0.5, 0.25], dtype=complex)).extended(32)
    r = reciprocal(f)
    prod = multiply(f, r)
    want = np.zeros(32)
    want[0] = 1.0
    assert np.allclose(prod.coeffs, want, atol=1e-12)


def test_reciprocal_of_geometric():
    # 1/(1/(1-wz)) = 1 - wz
    w = 0.7j
    r = reciprocal(geometric(w, 16))
    want = np.zeros(16, dtype=complex)
    want[0], want[1] = 1.0, -w
    assert np.allclose(r.coeffs, want, atol=1e-12)


def test_reciprocal_rejects_vanishing_constant_term():
    with pytest.raises(DomainError):
        reciprocal(monomial(1, 8))


# -- kernels -------------------------------------------------------------------


def test_reproducing_property_by_quadrature():
    # <f, K_w> should equal f(w); compare against boundary quadrature of f
    w = 0.4 + 0.3j
    f = H2Series(np.array([1.0, -2.0, 0.5, 1j, 0.25], dtype=complex)).extended(N)
    assert inner_product(f, reproducing_kernel(w, N)) == pytest.approx(
        evaluate(f, w), abs=1e-12
    )
    # Parseval cross-check of the norm by trapezoid rule on the circle
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    vals = np.polyval(f.coeffs[::-1][-5:], np.exp(1j * theta))
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(f.norm_sq(), abs=1e-10)


def test_derivative_kernel_reproduces_derivatives():
    # <f, K_w^[j]> = f^(j)(w)
    w = 0.3 - 0.2j
    coeffs = np.array([1.0, -1.0, 2.0, 0.5], dtype=complex)
    f = H2Series(coeffs).extended(N)
    for j, want in [
        (1, coeffs[1] + 2 * coeffs[2] * w + 3 * coeffs[3] * w**2),
        (2, 2 * coeffs[2] + 6 * coeffs[3] * w),
        (3, 6 * coeffs[3]),
    ]:
        kj = kernel(KernelSpec(w, j), N)
        assert inner_product(f, kj) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("w", [0.5, 0.3 + 0.4j, -0.9j, 0.999])
def test_kernel_matches_coefficient_loop(w):
    # reference: the falling factorial and the powers of conj(w), one
    # coefficient at a time; the vectorized kernel does the same arithmetic
    def loop(w, j, n):
        out = np.zeros(n, dtype=complex)
        if j >= n:
            return out
        c = float(math.factorial(j))
        out[j] = c
        for m in range(j + 1, n):
            c = c * m / (m - j)
            out[m] = c
        powers = np.ones(n - j, dtype=complex)
        for i in range(1, n - j):
            powers[i] = powers[i - 1] * complex(w).conjugate()
        out[j:] *= powers
        return out

    for j in range(4):
        for n in (1, 2, 3, 64, 512, 6144):
            assert np.array_equal(kernel(KernelSpec(w, j), n).coeffs, loop(w, j, n)), (j, n)


def test_kernel_norm_closed_form():
    w = 0.6
    k = reproducing_kernel(w, 512)
    assert k.norm_sq() == pytest.approx(1.0 / (1.0 - w * w), abs=1e-12)


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        kernel(KernelSpec(1.5 + 0j, 0), 8)
    with pytest.raises(DomainError):
        KernelSpec(0.5 + 0j, -1)


# -- series of a linear fractional symbol ---------------------------------------


def test_series_of_affine_map_is_exact():
    s = series_of_mobius(MobiusMap(0.5, 0.25, 0, 1), 8)
    assert s.coeffs[0] == pytest.approx(0.25)
    assert s.coeffs[1] == pytest.approx(0.5)
    assert np.allclose(s.coeffs[2:], 0.0)


def test_series_of_involution_closed_form():
    a = 0.5 + 0.1j
    s = series_of_mobius(involution(a), 32)
    assert s.coeffs[0] == pytest.approx(a)
    ab = np.conj(a)
    want = -(1 - abs(a) ** 2) * ab ** (np.arange(1, 32) - 1)
    assert np.allclose(s.coeffs[1:], want, atol=1e-12)
    # the shortest truncations, n = 0 included
    assert series_of_mobius(involution(a), 0).truncation == 0
    for n in (1, 2, 3):
        assert np.allclose(series_of_mobius(involution(a), n).coeffs, s.coeffs[:n], rtol=0, atol=1e-15)


@given(disk_points, st.floats(0, 2 * math.pi))
@settings(max_examples=40)
def test_series_evaluates_to_the_map(z, t):
    phi = involution(0.4 * cmath.exp(1j * t))
    s = series_of_mobius(phi, 2048)
    if abs(z) > 0.8:
        z = 0.8 * z / abs(z)
    want = phi(z).finite
    assert evaluate(s, z) == pytest.approx(want, abs=1e-9)


def test_series_rejects_pole_in_closed_disk():
    with pytest.raises(ExpansionDomainError):
        series_of_mobius(MobiusMap(0, 1, 1, 0), 8)  # 1/z
    with pytest.raises(ExpansionDomainError):
        series_of_mobius(MobiusMap(1, 0, 1, -0.5), 8)  # pole at 0.5


# -- composition-with-adjoint identity for automorphisms ------------------------


def test_identity_id_check_for_automorphisms():
    for phi in (rotation(1j), involution(0.5), involution(0.3 + 0.4j)):
        for z in (0.3 + 0.2j, 0.1 - 0.4j, -0.75):
            assert identity_id_check(phi, z) < 1e-12


def test_identity_id_check_rejects_nonautomorphism():
    with pytest.raises(DomainError):
        identity_id_check(MobiusMap(0.5, 0.25, 0, 1), 0.1)
