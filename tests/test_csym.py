"""Decision procedure: which symbols give complex symmetric operators."""

import cmath
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csymcomp import mobius
from csymcomp.csym import (
    CsVerdict,
    Witness,
    _location,
    decide,
    decide_automorphism,
    is_involutive_automorphism,
)
from csymcomp.errors import DomainError, NotSelfMapError
from csymcomp.mobius import (
    FixedPointKind,
    MobiusMap,
    SymbolClass,
    SymbolKind,
    classify,
    compose,
    derivative_at,
    elliptic,
    fixed_points,
    involution,
    is_automorphism,
    is_disk_selfmap,
    multiplier_order,
    order_tolerance,
    rotation,
)

from helpers import cross_check, identity_map

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
)
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(inputs)

OMEGA3 = cmath.exp(2j * math.pi / 3)

# radii either exactly zero or well inside (0,1): radii within the
# classifier's tolerance band around 0 are genuinely ambiguous
disk_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.one_of(st.just(0.0), st.floats(1e-6, 0.9)),
    st.floats(0.0, 2 * math.pi),
)

unimodular = st.builds(lambda t: cmath.exp(1j * t), st.floats(0.0, 2 * math.pi))


# -- the three sufficient conditions --------------------------------------------


def test_rotation_is_cs_via_fixed_zero_and_infinity():
    v = decide(rotation(cmath.exp(1j)))
    assert v.is_cs
    assert Witness.FIX_ZERO_AND_EXTERIOR in v.witnesses


def test_dilation_translation_is_cs_via_infinity_and_interior():
    v = decide(MobiusMap(0.5, 0.25, 0, 1))  # fixes 1/2 and infinity
    assert v.is_cs
    assert Witness.FIX_INFINITY_AND_INTERIOR in v.witnesses


def test_schroeder_symbol_cs_iff_second_fixed_point_exterior():
    # bz/(1-cz) fixes 0 and (1-b)/c
    assert decide(MobiusMap(0.5, 0, -0.25, 1)).is_cs  # second point at 2
    assert not decide(MobiusMap(0.5, 0, -0.5, 1)).is_cs  # second point at 1


def test_involution_is_cs_via_involutive_automorphism():
    v = decide(involution(0.5))
    assert v.is_cs
    assert Witness.INVOLUTIVE_AUTOMORPHISM in v.witnesses
    # its fixed points are interior+exterior, so neither fixed-point witness fires
    assert Witness.FIX_ZERO_AND_EXTERIOR not in v.witnesses


def test_identity_is_cs():
    v = decide(identity_map())
    assert v.is_cs


# -- negative verdicts -----------------------------------------------------------


def test_elliptic_of_order_three_is_not_cs():
    v = decide(elliptic(OMEGA3, 0.5))
    assert not v.is_cs
    assert not v.witnesses


@pytest.mark.parametrize("order_omega", [1j, cmath.exp(2j * math.pi / 5), cmath.exp(1j)])
def test_elliptic_of_higher_order_is_not_cs(order_omega):
    assert not decide(elliptic(order_omega, 0.4)).is_cs


def test_hyperbolic_and_parabolic_are_not_cs():
    assert not decide(MobiusMap(1, 0.5, 0.5, 1)).is_cs
    assert not decide(MobiusMap(2j - 1, 1, -1, 1 + 2j)).is_cs
    v = decide(MobiusMap(0, 1, -1, 2))  # 1/(2-z), parabolic non-automorphism
    assert not v.is_cs
    assert any("repeated" in note for note in v.notes)


def test_boundary_fixed_point_rules_out_cs():
    v = decide(MobiusMap(0.5, 0.5, 0, 1))  # z/2 + 1/2 fixes 1 and infinity
    assert not v.is_cs
    assert any("boundary" in note for note in v.notes)


def test_decide_rejects_non_selfmap():
    with pytest.raises(NotSelfMapError):
        decide(MobiusMap(2, 0, 0, 1))


# -- involutivity detection ------------------------------------------------------


@given(disk_points)
def test_involution_detected(a):
    assert is_involutive_automorphism(involution(a))


def test_identity_is_not_involutive():
    assert not is_involutive_automorphism(identity_map())


@given(disk_points, unimodular)
@settings(max_examples=60)
def test_conjugated_half_turn_is_involutive(a, omega):
    # phi_a o (-z) o phi_a^{-1} is an involutive automorphism for any a
    phi = involution(a)
    m = compose(phi, compose(rotation(-1), phi))
    assert is_involutive_automorphism(m)
    assert decide(m).is_cs


def test_generic_elliptic_is_not_involutive():
    assert not is_involutive_automorphism(elliptic(1j, 0.3))


# -- automorphism-only route and cross-check --------------------------------------


def test_decide_automorphism_requires_automorphism():
    with pytest.raises(DomainError):
        decide_automorphism(MobiusMap(0.5, 0.25, 0, 1))


def test_decide_automorphism_verdicts():
    assert decide_automorphism(rotation(1j)).is_cs
    assert decide_automorphism(involution(0.5)).is_cs
    assert not decide_automorphism(elliptic(OMEGA3, 0.5)).is_cs
    assert not decide_automorphism(MobiusMap(1, 0.5, 0.5, 1)).is_cs


@given(disk_points, unimodular)
@settings(max_examples=80)
def test_cross_check_on_random_automorphisms(a, omega):
    # omega * phi_a is a general disk automorphism
    m = compose(rotation(omega), involution(a))
    assert cross_check(m)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 12])
def test_rotation_conjugacy_grid(q):
    # every rotation is CS; a conjugated (off-center) elliptic automorphism
    # is CS only when its order is at most two
    omega = cmath.exp(2j * math.pi / q)
    assert decide(elliptic(omega, 0.0)).is_cs
    for center in (0.3, 0.4 - 0.2j):
        m = elliptic(omega, center)
        assert decide(m).is_cs == (q <= 2)


# -- one geometric pass ------------------------------------------------------------


def _oracle_classify(f):
    """``classify`` as it was before the one pass: each predicate on its own."""
    tol = mobius.DEFAULT_TOL
    if f.is_identity():
        return SymbolClass(SymbolKind.ROTATION, order=1.0, center=0.0 + 0.0j)
    if not is_disk_selfmap(f):
        return SymbolClass(SymbolKind.NOT_SELF_MAP)
    fp = fixed_points(f)
    interior = [p for p in fp.points if not p.is_infinity and abs(p.finite) < 1.0 - tol]
    if is_automorphism(f):
        if fp.kind is FixedPointKind.REPEATED:
            return SymbolClass(SymbolKind.PARABOLIC_AUT)
        if not interior:
            return SymbolClass(SymbolKind.HYPERBOLIC_AUT)
        center = interior[0].finite
        order = multiplier_order(derivative_at(f, center), order_tolerance(f))
        if abs(f.b) <= tol and abs(f.c) <= tol:
            return SymbolClass(SymbolKind.ROTATION, order=order, center=0.0 + 0.0j)
        return SymbolClass(SymbolKind.ELLIPTIC_AUT, order=order, center=center)
    if interior:
        return SymbolClass(SymbolKind.NONAUT_INTERIOR_FIXED, center=interior[0].finite)
    return SymbolClass(SymbolKind.NONAUT_BOUNDARY_FIXED)


def _oracle_decide(phi):
    """``decide`` as it was before the one pass, literally: each condition on
    its own predicates."""
    if not is_disk_selfmap(phi):
        raise NotSelfMapError("symbol does not map the unit disk into itself")
    cls = _oracle_classify(phi)
    fp = fixed_points(phi)
    if fp.kind is FixedPointKind.IDENTITY:
        return CsVerdict(True, frozenset({Witness.FIX_ZERO_AND_EXTERIOR}), fp, cls,
                         ["identity map (rotation)"])
    if fp.kind is FixedPointKind.REPEATED:
        return CsVerdict(False, frozenset(), fp, cls, ["repeated fixed point (parabolic type)"])
    p, q = fp.points
    loc_p, loc_q = _location(p), _location(q)
    notes = ["boundary fixed point"] if "boundary" in (loc_p, loc_q) else []
    witnesses = set()
    if {loc_p, loc_q} == {"zero", "exterior"}:
        witnesses.add(Witness.FIX_ZERO_AND_EXTERIOR)
    if (p.is_infinity and loc_q in ("zero", "interior")) or (
        q.is_infinity and loc_p in ("zero", "interior")
    ):
        witnesses.add(Witness.FIX_INFINITY_AND_INTERIOR)
    if is_involutive_automorphism(phi):
        witnesses.add(Witness.INVOLUTIVE_AUTOMORPHISM)
    return CsVerdict(bool(witnesses), frozenset(witnesses), fp, cls, notes)


def _outcome(decide_fn, phi):
    try:
        v = decide_fn(phi)
    except NotSelfMapError:
        return "not_self_map"
    return v.is_cs, v.witnesses, v.fixed_points, v.notes, v.symbol_class


def _near_degenerate(seed, count):
    """Maps within 1e-13..1e-8 of a classify-round symbol or of the identity."""
    rng = np.random.default_rng([seed, 7])
    bases = [s.coeffs for s in inputs.classify_round(seed)] + [(1, 0, 0, 1)] * 100
    for _ in range(count):
        base = np.array(bases[rng.integers(len(bases))], dtype=complex)
        scale = 10.0 ** rng.uniform(-13, -8)
        yield base + scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))


def test_one_pass_changes_no_decision():
    # 40 classify rounds (each holds the corpus and the near-boundary slice)
    # and 4000 maps near a round symbol or the identity
    symbols = [s.coeffs for seed in range(40) for s in inputs.classify_round(seed)]
    symbols += list(_near_degenerate(2718, 4000))
    kinds = set()
    for coeffs in symbols:
        phi = MobiusMap(*coeffs)
        got = _outcome(decide, phi)
        assert got == _outcome(_oracle_decide, phi), coeffs
        kinds.add("not_self_map" if got == "not_self_map" else got[-1].kind.value)
    assert kinds == {k.value for k in SymbolKind}


def test_classify_moves_only_near_identity_non_selfmaps():
    # testing the disk first changes a class only where the old classify said
    # rotation to a map that is_identity passes and is_disk_selfmap refuses
    moved = 0
    for coeffs in _near_degenerate(31, 4000):
        phi = MobiusMap(*coeffs)
        old, new = _oracle_classify(phi), classify(phi)
        if new != old:
            assert phi.is_identity() and not is_disk_selfmap(phi)
            assert (old.kind, new.kind) == (SymbolKind.ROTATION, SymbolKind.NOT_SELF_MAP)
            moved += 1
        assert (new.kind is SymbolKind.NOT_SELF_MAP) == (not is_disk_selfmap(phi))
    assert moved > 0


@pytest.mark.parametrize(
    "phi",
    [
        identity_map(),
        rotation(1j),
        elliptic(OMEGA3, 0.5),
        MobiusMap(2j - 1, 1, -1, 1 + 2j),  # parabolic automorphism
        MobiusMap(0.5, 0.25, 0, 1),  # non-automorphism
        MobiusMap(2, 0, 0, 1),  # not a self-map
    ],
    ids=["identity", "rotation", "elliptic3", "parabolic", "nonaut", "not_self_map"],
)
def test_decide_makes_one_geometric_pass(monkeypatch, phi):
    # one image disk serves the self-map and automorphism tests, and one
    # fixed-point quadratic the identity test
    disks, identities = [], []
    image_disk, is_identity = mobius._image_disk, MobiusMap.is_identity

    def counted_disk(f):
        disks.append(f)
        return image_disk(f)

    def counted_identity(f):
        identities.append(f)
        return is_identity(f)

    monkeypatch.setattr(mobius, "_image_disk", counted_disk)
    monkeypatch.setattr(MobiusMap, "is_identity", counted_identity)
    try:
        decide(phi)
    except NotSelfMapError:
        assert identities == []
    assert len(disks) == 1
    assert len(identities) <= 1
