"""Algebra and classification of linear fractional maps."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csymcomp.csym import Witness, decide, decide_automorphism
from csymcomp.errors import DomainError, InvalidMapError, PoleDerivativeError
from csymcomp.mobius import (
    INF,
    ORDER_MAX,
    ORDER_TOL_PER_KAPPA,
    FixedPointKind,
    MobiusMap,
    SpherePoint,
    SymbolKind,
    apply,
    boundary_contact,
    chordal_distance,
    classify,
    compose,
    conjugate_by_involution,
    derivative_at,
    elliptic,
    fixed_points,
    identity_map,
    interior_fixed_point,
    involution,
    is_automorphism,
    is_disk_selfmap,
    multiplier_order,
    rotation,
    second_derivative_at,
)

# -- strategies --------------------------------------------------------------

finite_complex = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)

disk_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2 * math.pi),
)


# centres with 1 - |a| log-uniform in [1e-4, 0.3]: the closed-form disk
# geometry must hold right up to the circle, where kappa reaches 1e8
near_circle_points = st.builds(
    lambda e, t: (1.0 - 10.0**-e) * cmath.exp(1j * t),
    st.floats(0.5, 4.0),
    st.floats(0.0, 2 * math.pi),
)


def _resolvable(theta: float) -> bool:
    """theta is at least 1e-4 from every 2 pi k / q with q <= ORDER_MAX."""
    return all(
        abs(math.remainder(q * theta, 2 * math.pi)) >= q * 1e-4
        for q in range(1, ORDER_MAX + 1)
    )


irrational_angles = st.floats(0.0, 2 * math.pi).filter(_resolvable)


def _maps():
    def build(a, b, c, d):
        try:
            m = MobiusMap(a, b, c, d)
        except InvalidMapError:
            return None
        return m if abs(m.det) > 1e-6 else None

    return (
        st.builds(build, finite_complex, finite_complex, finite_complex, finite_complex)
        .filter(lambda m: m is not None)
    )


mobius_maps = _maps()


# -- construction and normalization ------------------------------------------


def test_coefficients_normalized_to_max_modulus_one():
    m = MobiusMap(10, 5, 0, 2)
    assert max(abs(c) for c in m.coefficients) == pytest.approx(1.0)
    assert m.a == pytest.approx(1.0)
    assert m.b == pytest.approx(0.5)


def test_singular_map_rejected():
    with pytest.raises(InvalidMapError):
        MobiusMap(1, 2, 2, 4)
    with pytest.raises(InvalidMapError):
        MobiusMap(0, 0, 0, 0)
    # max() drops a NaN that does not come first, so each coefficient is checked
    for bad in (math.nan, math.inf, complex(0, math.nan)):
        with pytest.raises(InvalidMapError):
            MobiusMap(1, bad, 0, 1)


@given(mobius_maps, st.floats(0.1, 100.0))
def test_normalization_scale_invariant(m, s):
    scaled = MobiusMap(s * m.a, s * m.b, s * m.c, s * m.d)
    for x, y in zip(scaled.coefficients, m.coefficients):
        assert x == pytest.approx(y, abs=1e-12)


# -- group structure ----------------------------------------------------------


@given(mobius_maps)
@settings(max_examples=50)
def test_inverse_composes_to_identity(m):
    assert compose(m, m.inverse()).is_identity(1e-7)
    assert compose(m.inverse(), m).is_identity(1e-7)


@given(mobius_maps, mobius_maps, disk_points)
@settings(max_examples=50)
def test_compose_is_pointwise_composition(f, g, z):
    inner = apply(g, z)
    if inner.is_infinity:
        return
    outer = apply(f, inner.finite)
    combined = apply(compose(f, g), z)
    if outer.is_infinity or combined.is_infinity:
        assert chordal_distance(outer, combined) < 1e-5
    else:
        assert chordal_distance(outer, combined) < 1e-5


@given(mobius_maps, mobius_maps, mobius_maps)
@settings(max_examples=50)
def test_compose_associative(f, g, h):
    left = compose(compose(f, g), h)
    right = compose(f, compose(g, h))
    # both are normalized; compare up to a unimodular phase
    ref = max(left.coefficients, key=abs)
    ref2 = right.coefficients[left.coefficients.index(ref)]
    phase = ref2 / ref
    for x, y in zip(left.coefficients, right.coefficients):
        assert x * phase == pytest.approx(y, abs=1e-9)


def test_identity_map_fixed_everywhere():
    m = identity_map()
    assert m.is_identity()
    assert fixed_points(m).kind is FixedPointKind.IDENTITY


# -- evaluation, poles, derivatives -------------------------------------------


def test_apply_at_pole_gives_infinity():
    m = MobiusMap(0, 1, -1, 2)  # 1/(2-z)
    assert apply(m, 2.0).is_infinity
    assert m.pole() == SpherePoint(2.0 + 0j)


def test_apply_at_infinity():
    m = MobiusMap(2, 1, 1, 3)
    assert apply(m, INF).finite == pytest.approx(2.0)
    assert apply(MobiusMap(1, 1, 0, 2), INF).is_infinity


def test_derivative_matches_finite_difference():
    m = MobiusMap(1, 2, 0.5, 3)
    z = 0.3 + 0.1j
    h = 1e-6
    fd = (apply(m, z + h).finite - apply(m, z - h).finite) / (2 * h)
    assert derivative_at(m, z) == pytest.approx(fd, abs=1e-8)
    h2 = 1e-4  # larger step: the second difference amplifies roundoff by 1/h^2
    fd2 = (
        apply(m, z + h2).finite - 2 * apply(m, z).finite + apply(m, z - h2).finite
    ) / h2**2
    assert second_derivative_at(m, z) == pytest.approx(fd2, abs=1e-6)


def test_derivative_at_pole_raises():
    m = MobiusMap(0, 1, -1, 2)
    with pytest.raises(PoleDerivativeError):
        derivative_at(m, 2.0)
    with pytest.raises(PoleDerivativeError):
        second_derivative_at(m, 2.0)


# -- fixed points --------------------------------------------------------------


@given(mobius_maps)
@settings(max_examples=100)
def test_fixed_points_are_fixed(m):
    fp = fixed_points(m)
    for p in fp.points:
        image = apply(m, p)
        assert chordal_distance(image, p) < 1e-5


def test_translation_has_double_fixed_point_at_infinity():
    fp = fixed_points(MobiusMap(1, 1, 0, 1))
    assert fp.kind is FixedPointKind.REPEATED
    assert fp.points[0].is_infinity


def test_dilation_fixes_zero_and_infinity():
    fp = fixed_points(MobiusMap(0.5, 0, 0, 1))
    assert fp.kind is FixedPointKind.DISTINCT_PAIR
    locs = {(p.is_infinity or None) and "inf" or p.finite for p in fp.points}
    pts = fp.points
    finite = [p.finite for p in pts if not p.is_infinity]
    assert any(p.is_infinity for p in pts)
    assert finite == [0j]


def test_parabolic_repeated_fixed_point_on_circle():
    fp = fixed_points(MobiusMap(0, 1, -1, 2))  # 1/(2-z)
    assert fp.kind is FixedPointKind.REPEATED
    assert fp.points[0].finite == pytest.approx(1.0)


def test_involution_fixed_points_are_reflections():
    a = 0.5
    fp = fixed_points(involution(a))
    vals = sorted(p.finite.real for p in fp.points)
    # fixed points of (a-z)/(1-az): z(1-az) = a-z, i.e. az^2 - 2z + a = 0
    lo = (1 - math.sqrt(1 - a * a)) / a
    hi = (1 + math.sqrt(1 - a * a)) / a
    assert vals[0] == pytest.approx(lo)
    assert vals[1] == pytest.approx(hi)
    assert vals[0] * vals[1] == pytest.approx(1.0)  # symmetric about the circle


# -- disk geometry -------------------------------------------------------------


@given(disk_points)
def test_involution_is_disk_automorphism_and_self_inverse(a):
    phi = involution(a)
    assert is_disk_selfmap(phi)
    assert is_automorphism(phi)
    assert compose(phi, phi).is_identity(1e-8)
    assert apply(phi, 0.0).finite == pytest.approx(a)
    got = apply(phi, a).finite
    assert abs(got) < 1e-8


def test_involution_requires_interior_center():
    with pytest.raises(DomainError):
        involution(1.0)


def test_selfmap_examples():
    assert is_disk_selfmap(MobiusMap(0.5, 0.25, 0, 1))  # z/2 + 1/4
    assert is_disk_selfmap(MobiusMap(0, 1, -1, 2))  # 1/(2-z)
    assert not is_disk_selfmap(MobiusMap(2, 0, 0, 1))  # 2z
    assert not is_disk_selfmap(MobiusMap(1, 1, 0, 1))  # z + 1
    assert not is_disk_selfmap(MobiusMap(0, 1, 1, 0))  # 1/z
    # pole within POLE_MARGIN of -1: maps -1 + 1e-12 to -8.64
    assert not is_disk_selfmap(MobiusMap(0.5, 0.49999999999, 1, 1.0000000000001))


def test_boundary_contact_flag():
    assert boundary_contact(MobiusMap(0.5, 0.5, 0, 1))  # z/2 + 1/2 touches at 1
    assert not boundary_contact(MobiusMap(0.5, 0, 0, 1))
    assert boundary_contact(involution(0.3))  # automorphism: image is the circle


@given(st.floats(0, 2 * math.pi))
def test_rotation_is_automorphism(t):
    m = rotation(cmath.exp(1j * t))
    assert is_automorphism(m)


# -- classification ------------------------------------------------------------


def test_classify_rotation_orders():
    assert classify(rotation(1)).order == 1.0
    assert classify(rotation(-1)).order == 2.0
    assert classify(rotation(cmath.exp(2j * math.pi / 3))).order == pytest.approx(3.0)
    assert classify(rotation(cmath.exp(1j))).order == math.inf


def test_classify_involution_is_order_two_elliptic():
    a = 0.4 + 0.2j
    cls = classify(involution(a))
    assert cls.kind is SymbolKind.ELLIPTIC_AUT
    assert cls.order == 2.0
    # center is the interior fixed point: a scaled by (1 - sqrt(1-|a|^2))/|a|^2
    r2 = abs(a) ** 2
    expected = a * (1 - math.sqrt(1 - r2)) / r2
    assert cls.center == pytest.approx(expected)


def test_classify_elliptic_order_three():
    cls = classify(elliptic(cmath.exp(2j * math.pi / 3), 0.5))
    assert cls.kind is SymbolKind.ELLIPTIC_AUT
    assert cls.order == pytest.approx(3.0)
    assert cls.center == pytest.approx(0.5)


def test_classify_hyperbolic_and_parabolic():
    assert classify(MobiusMap(1, 0.5, 0.5, 1)).kind is SymbolKind.HYPERBOLIC_AUT
    assert (
        classify(MobiusMap(2j - 1, 1, -1, 1 + 2j)).kind is SymbolKind.PARABOLIC_AUT
    )


def test_classify_nonautomorphisms():
    assert (
        classify(MobiusMap(0.5, 0.25, 0, 1)).kind is SymbolKind.NONAUT_INTERIOR_FIXED
    )
    assert classify(MobiusMap(0, 1, -1, 2)).kind is SymbolKind.NONAUT_BOUNDARY_FIXED
    assert classify(MobiusMap(2, 0, 0, 1)).kind is SymbolKind.NOT_SELF_MAP


def test_multiplier_order_threshold():
    assert multiplier_order(cmath.exp(2j * math.pi / 7)) == 7.0
    assert multiplier_order(cmath.exp(2j * math.pi / 65)) == math.inf  # beyond cap
    assert multiplier_order(0.5) == math.inf


def test_interior_fixed_point():
    assert interior_fixed_point(MobiusMap(0.5, 0.25, 0, 1)) == pytest.approx(0.5)
    assert interior_fixed_point(involution(0.3)) == pytest.approx(
        (1 - math.sqrt(1 - 0.09)) / 0.3
    )
    with pytest.raises(DomainError):
        interior_fixed_point(MobiusMap(1, 0.5, 0.5, 1))


def test_conjugate_by_involution_moves_fixed_points():
    # rotation fixes 0; conjugating by phi_a moves the interior fixed point to a
    a = 0.3 + 0.2j
    m = conjugate_by_involution(rotation(1j), a)
    assert interior_fixed_point(m) == pytest.approx(a)


# -- near the unit circle -------------------------------------------------------


def _check_automorphism(m, kind, order):
    cls = classify(m)
    assert cls.kind is kind
    assert cls.order == order
    assert decide(m).is_cs == decide_automorphism(m).is_cs
    return cls


@given(st.integers(1, 12), st.integers(0, 11), irrational_angles)
def test_rotation_orders(q, k, theta):
    k = next(j for j in range(k, k + q) if math.gcd(j % q, q) == 1) % q
    _check_automorphism(rotation(cmath.exp(2j * math.pi * k / q)), SymbolKind.ROTATION, float(q))
    _check_automorphism(rotation(cmath.exp(1j * theta)), SymbolKind.ROTATION, math.inf)


@given(near_circle_points, st.floats(0.0, 2 * math.pi))
def test_near_circle_rotation_of_involution(a, t):
    # tr^2/det of e^{it} phi_a is 4 sin^2(t/2) / (1 - |a|^2): elliptic below 4,
    # hyperbolic above; the band around 4 (nearly parabolic) is ill-posed
    ratio = math.sin(t / 2) ** 2 / (1 - abs(a) ** 2)
    assume(ratio < 0.5 or ratio > 2.0)
    m = compose(rotation(cmath.exp(1j * t)), involution(a))
    assert is_disk_selfmap(m)
    assert is_automorphism(m)
    assert boundary_contact(m)
    if ratio > 2.0:
        _check_automorphism(m, SymbolKind.HYPERBOLIC_AUT, None)
    else:
        assert classify(m).kind is SymbolKind.ELLIPTIC_AUT
        assert decide(m).is_cs == decide_automorphism(m).is_cs


@given(near_circle_points)
def test_near_circle_involution(a):
    m = involution(a)
    cls = _check_automorphism(m, SymbolKind.ELLIPTIC_AUT, 2.0)
    r2 = abs(a) ** 2
    assert abs(cls.center - a * (1 - math.sqrt(1 - r2)) / r2) <= 1e-6
    verdict = decide(m)
    assert verdict.is_cs
    assert Witness.INVOLUTIVE_AUTOMORPHISM in verdict.witnesses


@given(st.integers(2, 6), st.integers(1, 5), near_circle_points)
def test_near_circle_elliptic_orders(q, k, a):
    k = next(j for j in range(k, k + q) if math.gcd(j % q, q) == 1) % q
    m = elliptic(cmath.exp(2j * math.pi * k / q), a)
    cls = _check_automorphism(m, SymbolKind.ELLIPTIC_AUT, float(q))
    assert abs(cls.center - a) <= 1e-6
    assert decide(m).is_cs == (q == 2)


@given(irrational_angles, near_circle_points)
def test_near_circle_elliptic_irrational(theta, a):
    m = elliptic(cmath.exp(1j * theta), a)
    cls = _check_automorphism(m, SymbolKind.ELLIPTIC_AUT, math.inf)
    assert abs(cls.center - a) <= 1e-6
    assert not decide(m).is_cs


@given(st.floats(-12.0, -2.0), st.sampled_from([-1.0, 1.0]), near_circle_points)
def test_near_circle_order_two_band(e, sign, a):
    # multipliers within 1e-12..1e-2 of -1 straddle the order-two tolerance,
    # which grows with kappa; the trace test and the order test must agree
    m = elliptic(-cmath.exp(1j * sign * 10.0**e), a)
    cls = classify(m)
    assert cls.kind is SymbolKind.ELLIPTIC_AUT
    assert decide(m).is_cs == decide_automorphism(m).is_cs == (cls.order == 2.0)


@given(
    st.floats(0.5, 4.0),
    st.floats(0.05, 0.95),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
    near_circle_points,
)
def test_near_circle_bz_over_one_minus_cz(e, u, tb, tc, a):
    # |b| + |c| = 1 - 10^-e: the image disk comes within 1e-4 of the circle
    s = 1.0 - 10.0**-e
    b, c = s * u * cmath.exp(1j * tb), s * (1 - u) * cmath.exp(1j * tc)
    m = MobiusMap(b, 0, -c, 1)  # fixes 0 and the exterior point (1 - b)/c
    assert is_disk_selfmap(m)
    assert not is_automorphism(m)
    cls = classify(m)
    assert cls.kind is SymbolKind.NONAUT_INTERIOR_FIXED
    assert cls.order is None
    assert cls.center == 0
    assert decide(m).is_cs
    # conjugated by phi_a the interior fixed point moves to a near the circle
    # and the exterior one stays finite, so no witness holds
    m = conjugate_by_involution(m, a)
    assert is_disk_selfmap(m)
    assert not is_automorphism(m)
    cls = classify(m)
    assert cls.kind is SymbolKind.NONAUT_INTERIOR_FIXED
    assert cls.order is None
    assert abs(cls.center - a) <= 1e-6
    assert not decide(m).is_cs
    with pytest.raises(DomainError):
        decide_automorphism(m)


def test_order_resolution_limit():
    # An elliptic map whose angle lies 2e-6 past 2 pi/3 has |lam^3 - 1| = 6e-6
    # and no q <= 64 closer.  It is told apart from order 3 until the order
    # tolerance ORDER_TOL_PER_KAPPA * kappa reaches 6e-6, at kappa = 6e7.
    theta = 2 * math.pi / 3 + 2e-6
    omega = cmath.exp(1j * theta)

    def order(r):
        return classify(elliptic(omega, r)).order

    lo, hi = 0.9, 1 - 1e-5
    assert order(lo) == math.inf and order(hi) == 3.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if order(mid) == math.inf else (lo, mid)
    assert hi == pytest.approx(0.9998883, abs=1e-6)
    kappa = elliptic(omega, hi).conditioning
    assert ORDER_TOL_PER_KAPPA * kappa == pytest.approx(abs(omega**3 - 1), rel=0.02)


# -- chordal metric -----------------------------------------------------------


def test_chordal_distance_basics():
    assert chordal_distance(INF, INF) == 0.0
    assert chordal_distance(SpherePoint(0j), INF) == pytest.approx(2.0)
    assert chordal_distance(SpherePoint(1 + 0j), SpherePoint(-1 + 0j)) == pytest.approx(2.0)


@given(finite_complex, finite_complex)
def test_chordal_distance_symmetric_and_bounded(u, v):
    d = chordal_distance(SpherePoint(u), SpherePoint(v))
    assert 0.0 <= d <= 2.0 + 1e-12
    assert d == pytest.approx(chordal_distance(SpherePoint(v), SpherePoint(u)))
