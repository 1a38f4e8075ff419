"""Series-level verification of the proof identities behind the classifier.

The order-3 elliptic argument hinges on two incompatible closed forms for
the norm of one explicitly constructible function; everything that enters
that computation (the coefficient recurrences, the inner-function
decompositions, the Schroeder linearizer, the kernel decompositions for
the degree-one reduction) is rebuilt here from closed forms and checked
unconditionally by truncated series arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import backend
from .compop import CompositionOperator, involution_powers
from .errors import DomainError
from .hardy import (
    H2Series,
    constant,
    inner_product,
    reproducing_kernel,
    series_of_mobius,
)
from .mobius import MobiusMap, apply, compose, conjugate_by_involution, involution, is_disk_selfmap

#: Default truncation for the verification suites.
DEFAULT_TRUNCATION = 512

OMEGA3 = np.exp(2j * np.pi / 3)

#: Size of the phi_a families the order-3 claims check.
_K_MAX = 6

#: Powers phi_a**0 .. phi_a**(3 _K_MAX + 2) of the families, read from the witness's operator.
_POWERS = 3 * _K_MAX + 3

#: Terms in w^3 of the series F with h = F(phi_a) for each witness function.  |rho| =
#: |a|/(1+|a|^2) <= 1/2 at every centre, so the first coefficient left out, at most
#: (K+1)|rho|^K + K|a|^3|rho|^(K-1) for the double pole of f, is below 1.6e-16.
_DELTA_TERMS = 60

#: Largest truncation a centre may ask of the order-3 and ``final`` checks.  The order-3 witness
#: reaches it at |a| = 0.99224: ``verify --suite order3`` takes 4.3 s and 176 MB at N = 31 785,
#: where ``--suite all`` fails the absolute ``TOL_MATRIX``.
MAX_TRUNCATION = 32768

#: ``final`` runs at the least N with N^2 |w0|^N below this: its functions' one pole, of order
#: at most 2, sits at 1/w0, so their m-th coefficients are O(m |w0|^m).
_FINAL_TAIL = 1e-16

_CENTER_ERROR = "witness requires a in the open disk, a != 0"


def _bz_over_one_minus_cz(b: complex, c: complex) -> MobiusMap:
    return MobiusMap(b, 0, -c, 1)


def _series_in_u(coeffs: np.ndarray, shift: int = 0) -> H2Series:
    """w^shift sum_k coeffs[k] u^k with u = w^3, as 3 ``_DELTA_TERMS`` terms in w."""
    out = np.zeros(3 * _DELTA_TERMS, dtype=np.complex128)
    out[shift::3] = coeffs
    return H2Series(out)


def _shift_up(f: H2Series) -> H2Series:
    """Multiply by z at fixed truncation."""
    out = np.zeros(f.truncation, dtype=np.complex128)
    out[1:] = f.coeffs[:-1]
    return H2Series(out)


# ---------------------------------------------------------------------------
# Schroeder linearizer for bz/(1-cz)


def schroeder_sigma(eta: complex, n: int) -> H2Series:
    """sigma(z) = z/(1 - eta z) = sum eta^j z^(j+1); needs |eta| < 1."""
    if abs(eta) >= 1:
        raise DomainError("sigma leaves the Hardy space when |eta| >= 1")
    out = np.zeros(n, dtype=np.complex128)
    if n > 1:
        out[1:] = backend._geometric(eta, n - 1)
    return H2Series(out)


def check_lemma_tz(b: complex, c: complex, n: int = DEFAULT_TRUNCATION):
    """Residual of sigma o phi = b sigma for phi = bz/(1-cz), eta = c/(1-b).

    Runs in series mode when sigma lies in the Hardy space (|eta| < 1),
    otherwise as a pointwise identity on a disk grid.  Returns
    ``(mode, residual)``.
    """
    b, c = complex(b), complex(c)
    if b == 0 or not is_disk_selfmap(_bz_over_one_minus_cz(b, c)):
        raise DomainError("need b != 0 and bz/(1-cz) a disk self-map")
    phi = _bz_over_one_minus_cz(b, c)
    eta = c / (1 - b)
    sigma_map = MobiusMap(1, 0, -eta, 1)
    if abs(eta) < 1:
        lhs = series_of_mobius(compose(sigma_map, phi), n)
        rhs = b * schroeder_sigma(eta, n)
        return "series", (lhs - rhs).norm()
    worst = 0.0
    for r in np.linspace(0.1, 0.8, 8):
        for t in range(8):
            z = r * np.exp(2j * np.pi * t / 8)
            lhs = apply(sigma_map, apply(phi, z)).finite
            rhs = b * apply(sigma_map, z).finite
            worst = max(worst, abs(lhs - rhs))
    return "grid", worst


# ---------------------------------------------------------------------------
# Order-3 elliptic witness functions


@dataclass
class Order3Witness:
    """Closed-form functions entering the order-3 contradiction argument.

    ``delta_law`` is lead * sum_k delta_k phi_a^(3k+1) from the closed-form
    delta_k, ``h1_diff`` is h1 - conj(a) h0, the series that law expands, and
    ``e1_diff`` is e_1 - conj(a) e_0 for e_k = K_a phi_a^k.
    ``phi_a_powers`` holds phi_a**j in column j for j <= 3 ``_K_MAX`` + 2,
    every power the claims read, copied from the block of the witness's
    operator of phi_a; the operator of the elliptic symbol is the caller's.
    """

    a: complex
    rho: complex
    rho_tilde: complex
    c0: complex
    h0: H2Series
    h1: H2Series
    g: H2Series
    f: H2Series
    delta_law: H2Series
    e1_diff: H2Series
    truncation: int
    phi_a_powers: np.ndarray

    @cached_property
    def h1_diff(self) -> H2Series:
        """h1 - conj(a) h0, built once for claim 4's eigenrelation and delta law."""
        return self.h1 - self.a.conjugate() * self.h0

    @property
    def g0(self) -> complex:
        """Value of the inner factor at the origin: -a^2/conj(a)."""
        return -self.a**2 / self.a.conjugate()

    def phi_a_family(self, exponents) -> list[H2Series]:
        """phi_a**e for e in exponents, read from ``phi_a_powers``."""
        return [H2Series(self.phi_a_powers[:, e]) for e in exponents]


def build_order3_witness(a: complex, n: int | None = None) -> Order3Witness:
    """Assemble h0, h1, g, f for the elliptic symbol of order 3 centered at a.

    Each is F(phi_a) for a series F in u = w^3 whose coefficients are geometric in
    rho, since 1/(1 - rho u) = sum rho^k u^k.  F is written in closed form to
    3 ``_DELTA_TERMS`` terms in w and composed with phi_a by one operator.  The
    delta law's delta_k = rho^k + k rho_tilde rho^(k-1) meets the coefficients
    (k+1) rho^k - conj(a)^3 k rho^(k-1) of (h1 - conj(a) h0)/lead because
    rho_tilde = rho - conj(a)^3.  The proof pins only |c0| = 1/(1-|a|^4), and
    every residual is invariant under its phase, so c0 is taken real.  The
    truncation defaults to ``order3_truncation(a)``; one below 100 is refused,
    since the operator's block then holds fewer than ``_POWERS`` powers.
    """
    a = complex(a)
    r = abs(a)
    if not 0 < r < 1:
        raise DomainError(_CENTER_ERROR)
    if n is None:
        n = order3_truncation(a)
    ab = a.conjugate()
    rho = -(ab**2 / a) * (1 - r**2) / (1 - r**4)
    rho_tilde = -(ab**2 / a) * (1 - r**6) / (1 - r**4)
    c0 = 1 / (1 - r**4)

    k = np.arange(_DELTA_TERMS)
    rk = backend._geometric(rho, _DELTA_TERMS)
    rk1 = np.concatenate(([0], rk[:-1]))  # rho^(k-1), 0 at k = 0
    double = (k + 1) * rk - ab**3 * k * rk1  # (1 - conj(a)^3 u)/(1 - rho u)^2
    h0 = _series_in_u(c0 * (rk - ab**3 * rk1))  # c0 (1 - conj(a)^3 u)/(1 - rho u)
    lead = -c0 * (ab * (1 - r**6)) / (a * (1 - r**4))
    h1 = _series_in_u(lead * double, 1) + ab * h0
    g = _series_in_u(rho.conjugate() * rk - rk1)  # (conj(rho) - u)/(1 - rho u)
    f = _series_in_u(((1 - r**6) / (1 - r**4)) * double)
    law = _series_in_u(lead * (rk + k * rho_tilde * rk1), 1)
    # K_a = (1 - conj(a) phi_a)/(1 - |a|^2), so e_1 - conj(a) e_0 = K_a (phi_a - conj(a))
    e1_diff = H2Series([-ab, 1 + ab**2, -ab]) * (1 / (1 - r**2))

    phi_a = CompositionOperator(involution(a), n)
    if phi_a.powers.shape[1] < _POWERS:
        raise DomainError(f"truncation {n} is below 100: its block of phi_a powers is too short")
    h0, h1, g, f, law, e1_diff = phi_a.apply([h0, h1, g, f, law, e1_diff])
    powers = phi_a.powers[:, :_POWERS].copy()  # a copy, so that the block goes with the operator
    return Order3Witness(a, rho, rho_tilde, c0, h0, h1, g, f, law, e1_diff, n, powers)


def check_claim1_structure(w: Order3Witness) -> list[float]:
    """h0 is orthogonal to the phi_a^(3k+2) family: |<h0, phi_a^(3k+2)>| for k <= 6.

    Its eigenrelation is ``check_claim_eigen``'s.
    """
    fam = w.phi_a_family(3 * k + 2 for k in range(_K_MAX + 1))
    return [abs(inner_product(w.h0, v)) for v in fam]


def check_claim_eigen(w: Order3Witness, t: CompositionOperator) -> tuple[float, float]:
    """Eigen residuals of claims 1 and 4, from one pass of the operator.

    ``t`` is the operator of the order-3 elliptic symbol centered at ``w.a``,
    at the witness's truncation.  Claim 1 has t h0 = h0, and claim 4 has
    t (h1 - conj(a) h0) = omega (h1 - conj(a) h0).
    """
    if t.truncation != w.truncation:
        raise DomainError(f"operator truncation {t.truncation} != witness truncation {w.truncation}")
    fixed, rotated = t.apply([w.h0, w.h1_diff])
    return (fixed - w.h0).norm(), (rotated - OMEGA3 * w.h1_diff).norm()


def check_claim2_norm(w: Order3Witness):
    """Norm and inner-function decomposition of h0.

    Checks ||h0||^2 against |c0|^2 (1-|a|^2)(1+|a|^2)^2, checks
    h0 = gamma1 g + gamma2, and checks that with the pinned |c0| the
    closed form collapses to ||e_0||^2 = 1/(1-|a|^2).
    """
    r = abs(w.a)
    ab = w.a.conjugate()
    closed = abs(w.c0) ** 2 * (1 - r**2) * (1 + r**2) ** 2
    norm_residual = abs(w.h0.norm_sq() - closed)
    gamma1 = w.c0 * (ab**2 / w.a) * (1 + r**2)
    gamma2 = w.c0 * (1 + r**2)
    decomposition_residual = (
        w.h0 - gamma1 * w.g - constant(gamma2, w.truncation)
    ).norm()
    e0_match = abs(closed - 1.0 / (1 - r**2))
    return {
        "norm": norm_residual,
        "decomposition": decomposition_residual,
        "e0_norm_match": e0_match,
    }


def check_claim3_moments(w: Order3Witness) -> list[float]:
    """<h0, phi_a^(3k)> = c0 (1-|a|^4) rho^k."""
    r = abs(w.a)
    fam = w.phi_a_family(3 * k for k in range(_K_MAX + 1))
    return [
        abs(inner_product(w.h0, v) - w.c0 * (1 - r**4) * w.rho**k)
        for k, v in enumerate(fam)
    ]


def check_claim4(w: Order3Witness):
    """Structure of h1: orthogonality and the delta law.

    Returns a dict with the orthogonality residuals of <h1, phi_a^(3k)> and
    the series residual of the delta-coefficient expansion
    delta_k = rho^k + k rho_tilde rho^(k-1).  Its eigenrelation is
    ``check_claim_eigen``'s.
    """
    fam = w.phi_a_family(3 * k for k in range(_K_MAX + 1))
    orth = [abs(inner_product(w.h1, v)) for v in fam]
    # delta law: h1 - conj(a) h0 = lead * sum_k delta_k phi_a^(3k+1)
    return {"orthogonality": orth, "delta_law": (w.h1_diff - w.delta_law).norm()}


# ---------------------------------------------------------------------------
# The contradiction: two closed forms for ||f||^2


@dataclass
class GapReport:
    a: complex
    truncation: int
    lhs: float
    rhs: float
    gap: float
    expected_gap: float
    residual: float
    beta_residual: float
    f0_residual: float


def _tail_length(a: complex) -> int:
    """Length of the series of f by a calibrated rule, short of e^-22.

    f is a series in phi_a**3 with poles at |w| = |rho|**(-1/3), where
    |rho| = |a|/(1 + |a|^2).  The s taken here is ((1 + |a|^2)/|a|^2)**(1/3),
    which is larger, so the length is short of 22 decay lengths by 1.61 at
    |a| = 0.6, 1.31 at 0.8 and 1.01 at 0.99: at it |f| is 1.8e-7 of its
    maximum at 0.8 and 6.1e-9 at 0.95, not e^-22 = 2.8e-10.
    """
    r = abs(a)
    s = ((1 + r**2) / r**2) ** (1.0 / 3.0)
    pole_radius_less_1 = (s - 1) * (1 - r) / (1 + s * r)  # of (s + r)/(1 + s r), exact near r = 1
    return int(math.ceil(22.0 / math.log1p(pole_radius_less_1)))


def order3_truncation(a: complex, n: int = DEFAULT_TRUNCATION) -> int:
    """Truncation of the order-3 witness when at least n is asked for.

    1.35 ``_tail_length``, at least 512: calibrated on that short length, it
    keeps n = 512 up to |a| = 0.71 and passes every claim at |a| = 0.95 to
    0.99, where 22 true decay lengths alone fail ``claim4_eigen``.  Raises
    DomainError above ``MAX_TRUNCATION``.
    """
    r = abs(a)
    if not 0 < r < 1:
        raise DomainError(_CENTER_ERROR)
    n = max(n, DEFAULT_TRUNCATION)
    if r >= 0.05:  # below, the tail is shorter than 20 terms
        n = max(n, math.ceil(1.35 * _tail_length(a)))
    if n > MAX_TRUNCATION:
        raise DomainError(f"|a| = {r:.9g} needs truncation {n}, above {MAX_TRUNCATION}")
    return n


def gap_report(w: Order3Witness) -> GapReport:
    """The two norms of the witness's f, at the witness's truncation.

    lhs = ||f||^2 from the series, which matches
    (1 + 2|a|^2 - 2|a|^4 - |a|^6)(1+|a|^2)^2; rhs is the value an isometric
    conjugation would force, (1-|a|^4)(1+|a|^2)^2.  The gap is strictly
    positive for every a != 0 in the disk, which is the contradiction.  It is
    read without cancelling the two: f(0) = F(a^3) gives |f_0|^2 = (1-|a|^4)^2,
    so lhs - rhs = sum_{m>=1} |f_m|^2 - 2|a|^2 (1+|a|^2)(1-|a|^4), whose two
    terms are O(|a|^2); ``f0_residual`` checks the series |f_0|^2.
    """
    a = w.a
    r = abs(a)
    lhs = w.f.norm_sq()
    rhs = (1 - r**4) * (1 + r**2) ** 2
    gap = float(np.sum(np.abs(w.f.coeffs[1:]) ** 2)) - 2 * r**2 * (1 + r**2) * (1 - r**4)
    expected = (2 * r**2 - r**4 - r**6) * (1 + r**2) ** 2

    # cross-check through the inner-function decomposition f = b1 g^2 + b2 g + b3
    ab = a.conjugate()
    b1 = (ab**2 / a) ** 2 * (1 + r**2)  # not ab^4/a^2, whose a^2 underflows
    b2 = (ab**2 / a) * (1 + r**2) * (2 + r**2)
    b3 = (1 + r**2) ** 2
    g0 = w.g0
    norm_from_betas = (
        abs(b1) ** 2
        + abs(b2) ** 2
        + abs(b3) ** 2
        + 2
        * (
            b1 * b2.conjugate() * g0
            + b2 * b3.conjugate() * g0
            + b1 * b3.conjugate() * g0**2
        ).real
    )
    return GapReport(
        a=a,
        truncation=w.truncation,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        expected_gap=expected,
        residual=abs(gap - expected),
        beta_residual=abs(lhs - norm_from_betas),
        f0_residual=abs(abs(w.f.coeffs[0]) ** 2 - (1 - r**4) ** 2),
    )


def check_e1_norm(w: Order3Witness) -> float:
    """||e_1 - conj(a) e_0||^2 = (1+|a|^2)/(1-|a|^2) by series norm."""
    r = abs(w.a)
    return abs(w.e1_diff.norm_sq() - (1 + r**2) / (1 - r**2))


# ---------------------------------------------------------------------------
# Degree-one reduction for non-automorphisms fixing a != 0


def final_truncation(w0: complex, n: int = DEFAULT_TRUNCATION) -> int:
    """Truncation of the ``final`` checks: max(n, the least N with N^2 |w0|^N <= 1e-16).

    Raises DomainError when |w0| asks for more than ``MAX_TRUNCATION``; an n
    above it is the caller's.
    """
    r = abs(w0)
    if r == 0:  # the h_j are polynomials
        return n
    decay = -math.log(r)
    log_tail = math.log(_FINAL_TAIL)
    # N^2 r^N falls past N = 2/decay; from there each step stays at or below the least N
    m = max(1.0, 2 / decay) if decay > 0 else math.inf
    while m <= MAX_TRUNCATION and 2 * math.log(m) - decay * m > log_tail:
        m = math.ceil((2 * math.log(m) - log_tail) / decay)
    if m > MAX_TRUNCATION:
        raise DomainError(f"|w0| = {r:.9g} needs a truncation above {MAX_TRUNCATION}")
    return max(n, math.ceil(m))


@dataclass
class TheoremFinalReport:
    truncation: int
    residuals: dict[str, float]

    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_theorem_final(
    b: complex, c: complex, a: complex, n: int = DEFAULT_TRUNCATION
) -> TheoremFinalReport:
    """Unconditional identities for h_j = ((a-z)/(1-w0 z))^j.

    Runs at ``final_truncation(w0, n)``.  Verifies the kernel decomposition of
    h1, both closed-form norms, the shifted decomposition of h2 - a h1, the
    kernel orthogonality, the gamma2 modulus, and the eigenrelations under the
    conjugated symbol.
    """
    b, c, a = complex(b), complex(c), complex(a)
    if b == 0 or c == 0:
        raise DomainError("need b != 0 and c != 0")
    if not is_disk_selfmap(_bz_over_one_minus_cz(b, c)):
        raise DomainError("bz/(1-cz) is not a disk self-map")
    if a == 0 or abs(a) >= 1:
        raise DomainError("need a in the open disk, a != 0")
    eta = c / (1 - b)
    if abs(eta) >= 1:
        raise DomainError("|eta| >= 1: witness functions leave the Hardy space")
    ab = a.conjugate()
    w0 = (ab - eta) / (1 - a * eta)
    wb = w0.conjugate()
    n = final_truncation(w0, n)

    base_map = MobiusMap(-1, a, -w0, 1)  # (a - z)/(1 - w0 z)
    h = backend.power_columns(base_map.coefficients, n, 3)  # h_j in column j
    h1, h2 = H2Series(h[:, 1]), H2Series(h[:, 2])

    kw = reproducing_kernel(wb, n)
    phi_w, phi_w2 = involution_powers(wb, (1, 2), n)

    res: dict[str, float] = {}
    res["h1_decomposition"] = (h1 - (phi_w + (a - wb) * kw)).norm()
    res["fy_norm"] = abs(
        h1.norm_sq() - (1 + abs(a - wb) ** 2 / (1 - abs(w0) ** 2))
    )

    denom = 1 - abs(w0) ** 2
    gamma1 = -(1 - a * w0) * (a - wb) / denom
    gamma2 = -((1 - a * w0) ** 2) / denom
    # K_wb = (1 - w0 phi_w)/(1 - |w0|^2)
    kw_phi_w = (phi_w - w0 * phi_w2) * (1 / denom)
    h_tilde = gamma1 * kw + gamma2 * kw_phi_w
    diff = h2 - a * h1
    res["h2_decomposition"] = (diff - _shift_up(h_tilde)).norm()
    res["f2y_norm"] = abs(
        diff.norm_sq() - (abs(gamma1) ** 2 + abs(gamma2) ** 2) / denom
    )
    res["kernel_orthogonality"] = abs(inner_product(kw_phi_w, kw))
    res["gamma2_modulus"] = abs(
        abs(gamma2) - (1 - abs(a) ** 2) / (1 - abs(eta) ** 2)
    )

    phi = conjugate_by_involution(_bz_over_one_minus_cz(b, c), a)
    m = CompositionOperator(phi, n)
    mh1, mh2 = m.apply([h1, h2])
    res["eigen_h1"] = (mh1 - b * h1).norm()
    res["eigen_h2"] = (mh2 - b**2 * h2).norm()
    return TheoremFinalReport(n, res)
