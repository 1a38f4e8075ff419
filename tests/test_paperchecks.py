"""Numerical verification of the operator identities behind the classification."""

import cmath
import math

import numpy as np
import pytest

from csymcomp.errors import DomainError
from csymcomp.hardy import evaluate, inner_product
from csymcomp.paperchecks import (
    GapReport,
    Order3Witness,
    build_order3_witness,
    check_claim1_structure,
    check_claim2_norm,
    check_claim3_moments,
    check_claim4,
    check_e1_norm,
    check_lemma_tz,
    check_theorem_final,
    check_theorem_main_gap,
    gap_truncation,
    schroeder_sigma,
)

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
    orth, eigen = check_claim1_structure(witness)
    assert max(orth) < TOL
    assert eigen < TOL


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
    assert out["eigen"] < TOL
    assert out["delta_law"] < TOL


def test_claims_past_the_witness_powers(witness):
    # a family wider than the witness's one phi_a build gets its own build,
    # whose columns agree with the shared ones
    width = witness.phi_a_powers.shape[1]
    short = check_claim3_moments(witness)
    wide = check_claim3_moments(witness, k_max=width // 3 + 2)
    assert wide[: len(short)] == pytest.approx(short, abs=1e-16)
    assert max(wide) < TOL


@pytest.mark.parametrize("a", [0.3, 0.5 + 0.2j, 0.25 - 0.55j])
def test_witness_checks_at_complex_centers(a):
    w = build_order3_witness(a)
    orth, eigen = check_claim1_structure(w)
    assert max(orth) < TOL and eigen < TOL
    assert check_claim2_norm(w)["norm"] < TOL
    assert check_claim4(w)["delta_law"] < TOL


def test_witness_rejects_center_outside_disk():
    with pytest.raises(DomainError):
        build_order3_witness(1.2)
    with pytest.raises(DomainError):
        build_order3_witness(0.0)


# -- norm gap ruling out complex symmetry for order-3 symbols ---------------------


def test_gap_closed_form_at_half():
    rep = check_theorem_main_gap(0.5)
    r2 = 0.25
    want = (2 * r2 - r2**2 - r2**3) * (1 + r2) ** 2
    assert rep.expected_gap == pytest.approx(want)
    assert rep.residual < 1e-8
    assert rep.beta_residual < 1e-10
    assert rep.gap > 0


def test_gap_positive_across_moduli():
    for r in (0.1, 0.35, 0.6, 0.8, 0.9):
        rep = check_theorem_main_gap(r * cmath.exp(0.4j))
        assert rep.residual < 1e-8
        assert rep.gap > 0


def test_gap_truncation_grows_near_boundary():
    assert gap_truncation(0.9) > gap_truncation(0.3)
    assert 512 <= gap_truncation(0.05) <= 6144
    assert 512 <= gap_truncation(0.95) <= 6144


def test_e1_norm_identity():
    for a in (0.3, 0.5, 0.5 + 0.2j):
        assert check_e1_norm(a) < 1e-10


# -- final theorem: membership of the adjoint images ------------------------------


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
