"""Numerical verification of the operator identities behind the classification."""

import cmath
import math

import numpy as np
import pytest

from csymcomp import paperchecks
from csymcomp.backend import power_columns, reciprocal
from csymcomp.cli import TOL_SERIES
from csymcomp.compop import CompositionOperator
from csymcomp.errors import DomainError
from csymcomp.hardy import H2Series, constant, multiply
from csymcomp.mobius import elliptic, involution
from csymcomp.paperchecks import (
    _DELTA_TERMS,
    OMEGA3,
    build_order3_witness,
    check_claim1_structure,
    check_claim2_norm,
    check_claim3_moments,
    check_claim4,
    check_claim_eigen,
    check_e1_norm,
    check_lemma_tz,
    check_theorem_final,
    final_truncation,
    gap_report,
    order3_truncation,
    schroeder_sigma,
)

from helpers import evaluate

TOL = 1e-8


# -- Schroeder-type eigenfunction lemma ------------------------------------------


def test_lemma_tz_series_mode():
    mode, res = check_lemma_tz(0.5, 0.25)
    assert mode == "series"
    assert res < 1e-10


def test_lemma_tz_grid_mode_when_sigma_unbounded():
    # eta = c/(1-b) on or outside the circle forces pointwise comparison
    mode, res = check_lemma_tz(0.5, 0.5)
    assert mode == "grid"
    assert res < 1e-12


@pytest.mark.parametrize(
    "b,c",
    [(0.5, 0.25), (0.3, 0.2), (0.6, 0.1 + 0.1j), (0.4 + 0.2j, 0.15)],
)
def test_lemma_tz_parameter_sweep(b, c):
    mode, res = check_lemma_tz(b, c)
    assert res < TOL


def test_schroeder_sigma_eigenrelation_pointwise():
    b, c = 0.5, 0.2
    eta = c / (1 - b)
    sigma = schroeder_sigma(eta, 256)
    # sigma(phi(z)) = b sigma(z) at a sample point
    z = 0.3 + 0.2j
    w = b * z / (1 - c * z)
    assert evaluate(sigma, w) == pytest.approx(b * evaluate(sigma, z), abs=1e-12)


# -- order-3 elliptic witness functions -------------------------------------------


def elliptic3_operator(w):
    """The operator the claims apply: the order-3 elliptic symbol at the witness's centre."""
    return CompositionOperator(elliptic(OMEGA3, w.a), w.truncation)


@pytest.fixture(scope="module")
def witness():
    return build_order3_witness(0.5)


def test_witness_scalar_invariants(witness):
    a = 0.5
    r2 = a * a
    assert witness.rho == pytest.approx(-(1 - r2) / (1 - r2 * r2) * a)
    assert abs(witness.c0) == pytest.approx(1 / (1 - r2 * r2))
    assert witness.g0 == pytest.approx(-a * a / a)  # -a^2/conj(a), real here
    assert abs(witness.rho) < 1


def test_witness_g_is_inner_up_to_truncation(witness):
    # g is a Blaschke-type quotient: unit norm and |g| = 1 on the circle
    assert witness.g.norm() == pytest.approx(1.0, abs=1e-10)
    z = 0.9 * cmath.exp(0.7j)
    # evaluate |g| near the boundary: should stay below 1 (maximum principle)
    assert abs(evaluate(witness.g, z)) < 1.0 + 1e-9


def test_claim1_h_functions_orthogonal_eigenvectors(witness):
    assert max(check_claim1_structure(witness)) < TOL
    assert check_claim_eigen(witness, elliptic3_operator(witness))[0] < TOL


def test_claim2_h1_norm_decomposition(witness):
    out = check_claim2_norm(witness)
    assert out["norm"] < TOL
    assert out["decomposition"] < TOL
    assert out["e0_norm_match"] < TOL


def test_claim3_weighted_moments(witness):
    assert max(check_claim3_moments(witness)) < TOL


def test_claim4_delta_coefficient_law(witness):
    out = check_claim4(witness)
    assert max(out["orthogonality"]) < TOL
    assert check_claim_eigen(witness, elliptic3_operator(witness))[1] < TOL
    assert out["delta_law"] < TOL


@pytest.mark.parametrize("a", [0.3, 0.5 + 0.2j, 0.25 - 0.55j])
def test_witness_checks_at_complex_centers(a):
    w = build_order3_witness(a)
    eigen1, eigen4 = check_claim_eigen(w, elliptic3_operator(w))
    assert max(check_claim1_structure(w)) < TOL and eigen1 < TOL and eigen4 < TOL
    assert check_claim2_norm(w)["norm"] < TOL
    assert check_claim4(w)["delta_law"] < TOL


def test_claims_reject_a_matrix_of_another_truncation():
    w = build_order3_witness(0.5, 128)
    # the claims read phi_a's powers from the block of the witness's operator
    block = CompositionOperator(involution(0.5), 128).powers
    assert np.array_equal(w.phi_a_powers, block[:, : w.phi_a_powers.shape[1]])
    t = CompositionOperator(elliptic(OMEGA3, 0.5), 64)
    with pytest.raises(DomainError):
        check_claim_eigen(w, t)


def test_witness_refuses_a_truncation_below_100():
    # below N = 100 the operator's block holds fewer than the 21 powers the claims read
    for n in (1, 64, 99):
        with pytest.raises(DomainError):
            build_order3_witness(0.5, n)
    assert build_order3_witness(0.5, 100).phi_a_powers.shape == (100, 21)


@pytest.mark.parametrize("r", [1e-6, 0.05, 0.5, 0.9, 0.99, 0.999, 1 - 1e-4])
@pytest.mark.parametrize("phase", [1, 1j, cmath.exp(2.1j)])
def test_delta_terms_cover_every_center(r, phase):
    # |rho| = |a|/(1+|a|^2) <= 1/2, so _DELTA_TERMS terms of the delta law
    # take rho^k below 1e-18 at every centre
    w = build_order3_witness(r * phase, 128)
    assert abs(w.rho) == pytest.approx(r / (1 + r * r), rel=1e-12)
    assert abs(w.rho) <= 0.5
    assert abs(w.rho) ** _DELTA_TERMS < 1e-18
    # the first coefficient the witness's series in w leave out, that of
    # w^(3K) in the double-pole series (1 - conj(a)^3 w^3)/(1 - rho w^3)^2
    k, rho = _DELTA_TERMS, abs(w.rho)
    assert (k + 1) * rho**k + k * r**3 * rho ** (k - 1) < 1e-15
    assert (w.h1 - w.a.conjugate() * w.h0 - w.delta_law).norm() < TOL
    assert w.phi_a_powers.shape == (128, 21)  # phi_a**j for j <= 3 * 6 + 2
    block = CompositionOperator(involution(w.a), 128).powers
    assert np.array_equal(w.phi_a_powers, block[:, :21])


@pytest.mark.parametrize("a", [0.5, 0.6 + 0.5j, 0.95])
def test_witness_matches_products_at_full_truncation(a):
    # oracle: the same algebra on N-term series in z, with u = phi_a^3
    w = build_order3_witness(a)
    n, r, ab = w.truncation, abs(a), complex(a).conjugate()
    powers = power_columns(involution(a).coefficients, n, 4)
    phi_a, u = H2Series(powers[:, 1]), H2Series(powers[:, 3])
    one = constant(1.0, n)
    num = one - ab**3 * u
    rec = H2Series(reciprocal((one - w.rho * u).coeffs, n))
    num_rec2 = multiply(num, multiply(rec, rec))
    h0 = w.c0 * multiply(num, rec)
    lead = -w.c0 * (ab * (1 - r**6)) / (a * (1 - r**4))
    want = {
        "h0": h0,
        "h1": lead * multiply(phi_a, num_rec2) + ab * h0,
        "g": multiply(w.rho.conjugate() * one - u, rec),
        "f": ((1 - r**6) / (1 - r**4)) * num_rec2,
    }
    for name, ref in want.items():
        assert (getattr(w, name) - ref).norm() <= 1e-13 * ref.norm(), name


def test_witness_rejects_center_outside_disk():
    with pytest.raises(DomainError):
        build_order3_witness(1.2)
    with pytest.raises(DomainError):
        build_order3_witness(0.0)


# -- norm gap ruling out complex symmetry for order-3 symbols ---------------------


def test_gap_closed_form_at_half():
    rep = gap_report(build_order3_witness(0.5))
    r2 = 0.25
    want = (2 * r2 - r2**2 - r2**3) * (1 + r2) ** 2
    assert rep.expected_gap == pytest.approx(want)
    assert rep.residual < 1e-8
    assert rep.beta_residual < 1e-10
    assert rep.gap > 0


@pytest.mark.parametrize("a", [1e-12, 1e-9, 1e-3, 0.3, 0.5 + 0.2j, 0.7, 0.95])
def test_gap_split_meets_the_closed_form(a):
    # sum_{m>=1} |f_m|^2 - 2|a|^2 (1+|a|^2)(1-|a|^4) has no cancellation, so the
    # gap keeps its digits down to |a| = 1e-12, where ||f||^2 - rhs reads 0
    rep = gap_report(build_order3_witness(a))
    assert rep.gap == pytest.approx(rep.expected_gap, rel=1e-14)
    assert rep.gap > 0
    assert rep.f0_residual <= 1e-15


def test_gap_report_near_zero_centre():
    # a^2 underflows to 0 below |a| ~ 1.5e-154, so b1 must not divide by it
    rep = gap_report(build_order3_witness(1e-300))
    assert math.isfinite(rep.beta_residual) and rep.beta_residual <= TOL_SERIES


def test_gap_report_reads_a_given_witness():
    # the verify suite hands its own witness to the gap checks
    w = build_order3_witness(0.6 + 0.2j, 700)
    rep = gap_report(w)
    assert rep.truncation == 700
    assert rep.residual < 1e-8


def test_gap_positive_across_moduli():
    for r in (0.1, 0.35, 0.6, 0.8, 0.9):
        rep = gap_report(build_order3_witness(r * cmath.exp(0.4j)))
        assert rep.residual < 1e-8
        assert rep.gap > 0


def test_order3_truncation_grows_near_boundary():
    assert order3_truncation(0.9) > order3_truncation(0.3)
    assert order3_truncation(0.05) == 512
    assert 512 < order3_truncation(0.95) < order3_truncation(0.98) < order3_truncation(0.99) == 25329


@pytest.mark.parametrize(
    "r,want",
    [(0.02, 512), (0.3, 512), (0.5, 512), (0.69, 512), (0.7, 512), (0.71, 512),
     (0.72, 516), (0.74, 581), (0.75, 617), (0.8, 860), (0.85, 1275), (0.9, 2119),
     (0.95, 4685), (0.98, 12422)],
)
def test_order3_truncation_values(r, want):
    # the truncation depends on |a| only
    assert order3_truncation(r) == want
    assert order3_truncation(r * cmath.exp(2.1j)) == want
    assert order3_truncation(r, 32) == want
    assert order3_truncation(r, 7000) == max(7000, want)


def test_order3_truncation_stops_at_its_limit():
    # the witness costs O(N^2) time; |a| = 0.999999 would need N = 2.6e8
    limit = paperchecks.MAX_TRUNCATION
    assert order3_truncation(0.9922) <= limit == order3_truncation(0.5, limit)
    for a in (0.9923, 0.999, 0.999999, 0.9999999999999999, 0.9999999999999999j):
        with pytest.raises(DomainError, match=f"above {limit}"):
            order3_truncation(a)
    with pytest.raises(DomainError, match=f"above {limit}"):
        order3_truncation(0.5, limit + 1)


@pytest.mark.parametrize("a", [0, 1, -1j, 1.5, 0.6 + 0.8j])
def test_order3_truncation_rejects_bad_centers(a):
    with pytest.raises(DomainError):
        order3_truncation(a)


def test_e1_norm_identity():
    for a in (0.3, 0.5, 0.5 + 0.2j):
        assert check_e1_norm(build_order3_witness(a)) < 1e-10


# -- final theorem: membership of the adjoint images ------------------------------


@pytest.mark.parametrize(
    "a,want", [(0.5, 512), (0.7, 512), (0.95, 512), (0.98, 830), (0.99, 1716), (0.992, 2167), (0.995, 3537)]
)
def test_final_truncation_values(a, want):
    # default b = 0.5, c = 0.25, so eta = 0.5 and w0 = (a - 0.5)/(1 - a/2)
    w0 = (a - 0.5) / (1 - 0.5 * a)
    assert final_truncation(w0) == want
    assert final_truncation(w0 * cmath.exp(1j), 4096) == max(4096, want)
    if w0:  # at w0 = 0 the h_j are polynomials
        least = final_truncation(w0, 1)
        assert least**2 * abs(w0) ** least <= 1e-16 < (least - 1) ** 2 * abs(w0) ** (least - 1)


def test_final_truncation_stops_at_the_limit():
    limit = paperchecks.MAX_TRUNCATION
    assert final_truncation(0.998) <= limit
    for w0 in (0.9985, 0.9999999999999999j, 1.0):
        with pytest.raises(DomainError, match=f"above {limit}"):
            final_truncation(w0)
    assert final_truncation(0, limit + 1) == limit + 1  # an explicit truncation is the caller's


@pytest.mark.parametrize(
    "b,c,a",
    [
        (0.5, 0.25, 0.3),
        (0.4, 0.2, 0.5),
        (0.3 + 0.1j, 0.15, 0.2 + 0.3j),
    ],
)
def test_theorem_final_residuals(b, c, a):
    rep = check_theorem_final(b, c, a)
    assert rep.max_residual() < 1e-7
    for key in (
        "h1_decomposition",
        "fy_norm",
        "h2_decomposition",
        "f2y_norm",
        "kernel_orthogonality",
        "gamma2_modulus",
        "eigen_h1",
        "eigen_h2",
    ):
        assert key in rep.residuals
