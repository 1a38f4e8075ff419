"""Checks on the program's outputs; each returns None or a reason string.

They read plain values (verdict fields, the CLI's JSON, matrices), so the
self-tests in ``selftest.py`` can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import numpy as np

from inputs import Expected, expected_gap

#: Tolerances fixed before measuring.
GAP_REL = 1e-8
U_TOL = 1e-10
RESIDUAL_REL = 1e-9
FLOOR_REL = 1e-6
#: Suites that ``verify --suite all`` must report, by check-name prefix.
VERIFY_PREFIXES = (
    "identity_id[", "adjoint_star", "lemma_star_s[", "claim1_", "claim2_", "claim3_",
    "claim4_", "gap_", "e1_norm", "lemma_tz[", "theorem_final[",
)
SEARCH_STOPS = ("tol", "grad")


def check_classify(expected: Expected, is_cs: bool, kind: str, order) -> str | None:
    got = (is_cs, kind, order)
    want = (expected.is_cs, expected.kind, expected.order)
    if got != want:
        return f"verdict/kind/order {got} != {want}"
    return None


def check_cross(is_cs: bool, automorphism_is_cs: bool) -> str | None:
    """``decide`` and ``decide_automorphism`` must agree on an automorphism."""
    if is_cs != automorphism_is_cs:
        return f"decide says {is_cs}, decide_automorphism says {automorphism_is_cs}"
    return None


def check_verify(a: complex, rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    checks = report.get("checks") or []
    if report.get("all_pass") is not True:
        return "all_pass is not true"
    for prefix in VERIFY_PREFIXES:
        if not any(c["name"].startswith(prefix) for c in checks):
            return f"no check named {prefix}*"
    for c in checks:
        if not c["residual"] <= c["tol"]:
            return f"{c['name']}: residual {c['residual']} > tol {c['tol']}"
        if c["pass"] is not True:
            return f"{c['name']}: pass is {c['pass']}"
    gaps = [c["gap"] for c in checks if c["name"] == "gap_strictly_positive"]
    if len(gaps) != 1:
        return "no gap reported"
    want = expected_gap(a)
    if not abs(gaps[0] - want) <= GAP_REL * abs(want):
        return f"gap {gaps[0]} != closed form {want}"
    return None


def check_search(t: np.ndarray, best_u: np.ndarray, best_residual: float, stop_reasons) -> str | None:
    bad = [r for r in stop_reasons if r not in SEARCH_STOPS]
    if bad:
        return f"restarts stopped on {bad}"
    n = t.shape[0]
    sym = np.linalg.norm(best_u - best_u.T)
    uni = np.linalg.norm(best_u.conj().T @ best_u - np.eye(n))
    if not (sym <= U_TOL and uni <= U_TOL):
        return f"best_U symmetry defect {sym:.3e}, unitarity defect {uni:.3e}"
    res = np.linalg.norm(t @ best_u - best_u @ t.T) / np.linalg.norm(t)
    if not abs(res - best_residual) <= RESIDUAL_REL * max(res, 1e-15):
        return f"recomputed residual {res!r} != reported {best_residual!r}"
    return None


def check_floor_pair(floor_t: float, floor_wtw: float) -> str | None:
    """The defect floor is a unitary invariant: T and W T W^H share it."""
    if not abs(floor_t - floor_wtw) <= FLOOR_REL * max(floor_t, floor_wtw):
        return f"floor of W T W^H {floor_wtw!r} != floor of T {floor_t!r}"
    return None

