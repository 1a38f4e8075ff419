"""Riemannian search for symmetric-unitary conjugation certificates."""

import logging

import numpy as np
import pytest

from csymcomp.compop import matrix_of_composition
from csymcomp.conjfinder import (
    OptimizeOptions,
    _cayley,
    _cholesky_solve,
    _euclidean_gradient,
    _defect_sq,
    _hessian,
    _project_tangent,
    _random_unitary,
    _reorthonormalize,
    _sym_basis,
    optimize,
    residual,
    schedule_search,
)
from csymcomp.errors import DomainError
from csymcomp.mobius import elliptic, involution, rotation

OMEGA3 = np.exp(2j * np.pi / 3)


# -- residual -----------------------------------------------------------------


def test_residual_at_identity_is_antisymmetry_defect():
    t = matrix_of_composition(involution(0.5), 16).data
    got = residual(t, np.eye(16))
    want = np.linalg.norm(t - t.T) / np.linalg.norm(t)
    assert got == pytest.approx(want)


def test_residual_nonnegative_and_zero_for_diagonal_symbol():
    t = matrix_of_composition(rotation(0.5j), 16)
    assert residual(t, np.eye(16)) == pytest.approx(0.0, abs=1e-14)


def test_residual_rejects_nonunitary_and_asymmetric():
    t = matrix_of_composition(involution(0.5), 8).data
    with pytest.raises(DomainError):
        residual(t, 2.0 * np.eye(8))
    q = _random_unitary(np.random.default_rng(0), 8)
    with pytest.raises(DomainError):
        residual(t, q + np.triu(np.ones((8, 8)), 5))


# -- gradient machinery ----------------------------------------------------------


def test_euclidean_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    tm = matrix_of_composition(involution(0.4), 6).data
    v = _random_unitary(rng, 6)
    g = _euclidean_gradient(tm, v)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    eps = 1e-6
    fd = (_defect_sq(tm, v + eps * h) - _defect_sq(tm, v - eps * h)) / (2 * eps)
    assert np.vdot(g, h).real == pytest.approx(fd, rel=1e-5)


def test_hessian_matches_finite_difference_along_cayley_steps():
    # f(V Cay(iS)) for real symmetric S: gradient Im A and the exact Hessian
    rng = np.random.default_rng(6)
    n = 6
    tm = matrix_of_composition(elliptic(OMEGA3, 0.4), n).data
    v = _random_unitary(rng, n)
    ia, ib, scale = _sym_basis(n)
    a = _project_tangent(v, _euclidean_gradient(tm, v))
    g = (a.imag[ia, ib] + a.imag[ib, ia]) * scale
    h = _hessian(v.conj().T @ tm @ v, ia, ib, scale)
    assert np.allclose(h, h.T)

    def f_along(coords):
        s_mat = np.zeros((n, n))
        s_mat[ia, ib] = coords * scale
        s_mat[ib, ia] += coords * scale
        return _defect_sq(tm, _cayley(v, 1j * s_mat))

    for _ in range(3):
        e = rng.standard_normal(ia.size)
        eps = 1e-4
        f_plus, f_0, f_minus = f_along(eps * e), f_along(0 * e), f_along(-eps * e)
        assert (f_plus - f_minus) / (2 * eps) == pytest.approx(g @ e, rel=1e-6)
        assert (f_plus - 2 * f_0 + f_minus) / eps**2 == pytest.approx(e @ h @ e, rel=1e-5)


def test_hessian_matches_brute_force_traces():
    # every entry from explicit basis matrices B_i and dense traces:
    # H_ij = tr(B_i K B_j) - 8 Re tr(B_i X B_j Y) - 8 Re tr(B_j X B_i Y)
    rng = np.random.default_rng(12)
    n = 5
    tm = matrix_of_composition(elliptic(OMEGA3, 0.4), n).data
    v = _random_unitary(rng, n)
    tv = v.conj().T @ tm @ v
    x, y = tv.conj().T, tv.T
    r0 = tv - tv.T
    k = 16.0 * (tv.conj().T @ tv).real - 8.0 * (tv.conj().T @ r0 - r0 @ tv.conj()).real
    k = 0.5 * (k + k.T)
    ia, ib, scale = _sym_basis(n)
    eye = np.eye(n)
    basis = [s * (np.outer(eye[a], eye[b]) + np.outer(eye[b], eye[a])) for a, b, s in zip(ia, ib, scale)]
    m = len(basis)
    oracle = np.empty((m, m))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            oracle[i, j] = (
                np.trace(bi @ k @ bj)
                - 8.0 * np.trace(bi @ x @ bj @ y).real
                - 8.0 * np.trace(bj @ x @ bi @ y).real
            )
    h = _hessian(tv, ia, ib, scale)
    assert np.abs(h - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 528])
def test_cholesky_solve_matches_dense_solve(m):
    # block edges at multiples of 64: below, on and past one block, and at
    # the Hessian dimension for N = 32
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    chol = np.linalg.cholesky(a @ a.T / m + np.eye(m))
    b = rng.standard_normal(m)
    want = np.linalg.solve(chol @ chol.T, b)
    got = _cholesky_solve(chol, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_tangent_projection_is_skew_hermitian():
    rng = np.random.default_rng(4)
    v = _random_unitary(rng, 8)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = _project_tangent(v, g)
    assert np.allclose(a, -a.conj().T)


def test_reorthonormalize_restores_unitarity():
    rng = np.random.default_rng(5)
    v = _random_unitary(rng, 8) + 1e-6 * rng.standard_normal((8, 8))
    q = _reorthonormalize(v)
    assert np.linalg.norm(q.conj().T @ q - np.eye(8)) < 1e-12
    # a matrix that is already unitary is (nearly) unchanged
    u = _random_unitary(rng, 8)
    assert np.linalg.norm(_reorthonormalize(u) - u) < 1e-12


def test_random_unitary_is_seeded_and_unitary():
    u1 = _random_unitary(np.random.default_rng(42), 16)
    u2 = _random_unitary(np.random.default_rng(42), 16)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(16)) < 1e-12


# -- optimize ----------------------------------------------------------------------


def test_rotation_converges_immediately():
    t = matrix_of_composition(rotation(0.5j), 16)
    rep = optimize(t, OptimizeOptions(restarts=2, max_iters=50))
    assert rep.best_residual <= 1e-13


def test_best_residual_never_exceeds_identity_residual():
    t = matrix_of_composition(involution(0.5), 16)
    rep = optimize(t, OptimizeOptions(restarts=2, max_iters=100))
    assert rep.best_residual <= residual(t, np.eye(16)) + 1e-15


def test_trace_nonincreasing_within_each_restart():
    t = matrix_of_composition(elliptic(OMEGA3, 0.5), 16)
    rep = optimize(t, OptimizeOptions(restarts=3, max_iters=120))
    by_restart = {}
    for restart, _, res in rep.trace:
        by_restart.setdefault(restart, []).append(res)
    for seq in by_restart.values():
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_best_u_is_symmetric_unitary():
    t = matrix_of_composition(involution(0.5), 16)
    rep = optimize(t, OptimizeOptions(restarts=4, max_iters=200))
    u = rep.best_U
    assert np.linalg.norm(u - u.T) < 1e-8
    assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-8
    # the reported best residual is reproducible from the reported certificate
    assert residual(t, u) == pytest.approx(rep.best_residual, abs=1e-10)


def test_optimize_reproducible_for_fixed_seed():
    t = matrix_of_composition(involution(0.5), 12)
    opts = OptimizeOptions(restarts=3, max_iters=80, seed=7)
    r1 = optimize(t, opts)
    r2 = optimize(t, opts)
    assert r1.best_residual == r2.best_residual
    assert np.array_equal(r1.best_U, r2.best_U)
    assert r1.trace == r2.trace


def test_stops_record_reason_gradient_and_iterations():
    t = matrix_of_composition(elliptic(OMEGA3, 0.5), 8)
    capped = optimize(t, OptimizeOptions(restarts=3, max_iters=20))
    assert [s.restart for s in capped.stops] == [0, 1, 2]
    assert all(s.reason == "max_iters" and s.iterations == 20 for s in capped.stops)
    assert capped.iterations == 60
    opts = OptimizeOptions(restarts=3, max_iters=5000, grad_tol=1e-9)
    done = optimize(t, opts)
    for s in done.stops:
        assert s.reason == "grad"
        assert s.grad_norm <= opts.grad_tol
        assert s.iterations < opts.max_iters
    assert done.best_residual == min(s.residual for s in done.stops)
    assert done.iterations == sum(s.iterations for s in done.stops)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def involution16_search():
    """involution(0.5) at N = 16 with the criterion 6 options, and its DEBUG records."""
    logger = logging.getLogger("csymcomp.conjfinder")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        t = matrix_of_composition(involution(0.5), 16)
        rep = optimize(t, OptimizeOptions(restarts=8, seed=42, max_iters=20000, grad_tol=1e-9))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return rep, handler.messages


def test_newton_takes_over_early(involution16_search):
    # L-BFGS hands each restart to Newton at a relative gradient of
    # NEWTON_GRAD; the longest of these restarts took 1177 iterations at
    # 1e-5, 429 at 1e-4 and takes 205 at 1e-3
    rep, _ = involution16_search
    assert all(s.reason == "grad" for s in rep.stops)
    assert max(s.iterations for s in rep.stops) <= 300


def test_levenberg_shift_does_not_swing(involution16_search):
    # after a step that matches its model the shift falls by TR_GROW, as
    # fast as the accepted shifts fall, so the next step's first Cholesky
    # try seldom fails; dividing by TR_GROW**2 gave 1.51 tries per step
    _, messages = involution16_search
    tries = [int(m.split(", ")[1].split()[0]) for m in messages if "Newton step" in m]
    assert tries
    assert sum(tries) / len(tries) <= 1.2


def test_debug_log_records_hand_off_and_newton_steps(caplog):
    t = matrix_of_composition(involution(0.5), 8)
    opts = OptimizeOptions(restarts=3, seed=42, max_iters=5000, grad_tol=1e-9)
    with caplog.at_level(logging.DEBUG, logger="csymcomp.conjfinder"):
        rep = optimize(t, opts)
    messages = [r.getMessage() for r in caplog.records]
    hand_offs = [msg for msg in messages if "hands off to Newton" in msg]
    steps = [msg for msg in messages if "Newton step" in msg]
    # restart 0 starts at the identity, a critical point, and stops at once
    assert [msg.split()[1] for msg in hand_offs] == ["1", "2"]
    assert steps and all("Cholesky tries" in msg for msg in steps)
    # each accepted Newton step is one iteration past the hand-off
    lbfgs_iters = [int(msg.split()[8].rstrip(",")) for msg in hand_offs]
    assert len(steps) == sum(rep.stops[r].iterations - it for r, it in zip((1, 2), lbfgs_iters))
    caplog.clear()
    optimize(t, opts)
    assert not caplog.records


def test_identity_reaching_tol_skips_random_restarts():
    t = matrix_of_composition(rotation(0.5j), 8)
    rep = optimize(t, OptimizeOptions(restarts=4))
    assert [(s.restart, s.reason, s.iterations) for s in rep.stops] == [(0, "tol", 0)]
    assert rep.restarts == 4


@pytest.mark.parametrize("name", ["involution", "elliptic3"])
def test_converged_floor_is_stable_under_ulp_perturbation(name):
    # the converged defect floor is a property of T: rounding-level changes
    # to T (another BLAS or kernel build) must not move it
    phi = involution(0.5) if name == "involution" else elliptic(OMEGA3, 0.5)
    t = matrix_of_composition(phi, 8).data
    noise = np.random.default_rng(11).standard_normal(t.shape)
    t_ulp = t * (1.0 + 2.2e-16 * noise)
    assert not np.array_equal(t, t_ulp)
    opts = OptimizeOptions(restarts=8, seed=42, max_iters=5000, grad_tol=1e-9)
    base, perturbed = optimize(t, opts), optimize(t_ulp, opts)
    assert all(s.reason in ("tol", "grad") for s in base.stops + perturbed.stops)
    assert perturbed.best_residual == pytest.approx(base.best_residual, rel=1e-6)


def test_seed_changes_the_random_restarts():
    t = matrix_of_composition(elliptic(OMEGA3, 0.5), 12)
    r1 = optimize(t, OptimizeOptions(restarts=2, max_iters=30, seed=1))
    r2 = optimize(t, OptimizeOptions(restarts=2, max_iters=30, seed=2))
    start1 = [res for restart, it, res in r1.trace if restart == 1 and it == 0]
    start2 = [res for restart, it, res in r2.trace if restart == 1 and it == 0]
    assert start1 != start2


# -- schedule search -------------------------------------------------------------------


def test_schedule_search_pads_the_previous_optimum():
    opts = OptimizeOptions(restarts=2, max_iters=60)
    first, second = schedule_search(involution(0.5), [8, 16], opts)
    assert (first.restarts, len(first.stops)) == (2, 2)
    assert (second.restarts, len(second.stops)) == (1, 1)
    assert second.best_U.shape == (16, 16)
    # the one start at N = 16 is U_8 with an identity block below it
    start = np.eye(16, dtype=complex)
    start[:8, :8] = first.best_U
    t16 = matrix_of_composition(involution(0.5), 16)
    assert second.trace[0] == (0, 0, pytest.approx(residual(t16, start), rel=1e-12))
    # the identity that ends a rotation's search pads to the identity
    rot = schedule_search(rotation(1j), [8, 8, 16], opts)
    assert [(s.reason, s.iterations) for rep in rot for s in rep.stops] == [("tol", 0)] * 3


def test_schedule_search_rejects_decreasing_truncations():
    with pytest.raises(DomainError):
        schedule_search(involution(0.5), [16, 8])


@pytest.mark.parametrize("name", ["involution", "elliptic3"])
def test_warm_chain_meets_random_restarts(name):
    # criterion 6 pins the warm chain; eight random restarts at each N must
    # find the same floor, so the pins also hold for the multi-start path
    phi = involution(0.5) if name == "involution" else elliptic(OMEGA3, 0.5)
    opts = OptimizeOptions(restarts=8, seed=42, max_iters=20000, grad_tol=1e-9)
    schedule = [8, 16, 32]
    for n, warm in zip(schedule, schedule_search(phi, schedule, opts)):
        cold = optimize(matrix_of_composition(phi, n), opts)
        assert all(s.reason in ("tol", "grad") for s in warm.stops + cold.stops)
        assert warm.best_residual == pytest.approx(cold.best_residual, rel=1e-6)
