"""Search for a symmetric-unitary conjugation certificate on truncated matrices.

A finite matrix T admits a conjugation symmetry exactly when T U = U T^t
for some symmetric unitary U.  We parametrize U = V V^t with V unitary
(so symmetry and unitarity hold by construction) and minimize the defect
f(V) = ||T U - U T^t||_F^2 over the unitary group.  A tangent vector at V
is written V A with A skew-Hermitian; the Euclidean gradient is projected
onto these coordinates and steps are taken along the Cayley retraction
V -> V (I - A/2)^{-1} (I + A/2), one linear solve per trial step.

Each restart runs Riemannian L-BFGS (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008; Wen & Yin,
*Math. Program.* 2013 for the Cayley step), with all restarts advanced
together as (R, N, N) stacks.  Near a minimum the defect is very badly
conditioned (Hessian eigenvalues spread over ten decades), so once the
relative gradient norm falls below ``NEWTON_GRAD`` = 1e-3 the restart
finishes with trust-region Newton steps on the exact Hessian, which
converge in a few tens of steps where first-order steps would need tens of
thousands of iterations.  The hand-off point trades L-BFGS iterations for
Newton steps, whose cost grows as m^3 in the Hessian dimension
m = N (N + 1) / 2.  Each Newton step costs one Hessian and, because the
Levenberg shift falls by the same factor after a good step as the accepted
shifts do, about 1.1 Cholesky factorizations.  At that price handing off at
1e-3 rather than 1e-4 halves the iterations of a search at N = 16..32 and
leaves the N = 64 searches of criterion 6 as fast as before.

``schedule_search`` solves coarse to fine (Nash, *Optim. Methods Softw.*
14, 2000): seeded restarts at the first truncation, then one warm start at
each larger one.  That start lies near the next floor, so only it pays for
the dense Newton steps there: a schedule up to N = 64 takes 7 s where
random restarts at every N took 66-70 s, and it reaches the same floors.

The module logger ``csymcomp.conjfinder`` writes DEBUG records, off by
default: one per restart at the hand-off (iteration and gradient norm) and
one per Newton step (shift, Cholesky tries, decrease ratio and defect).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .compop import OperatorMatrix, matrix_of_composition
from .errors import DomainError

log = logging.getLogger(__name__)

#: Armijo sufficient-decrease constant and halving cap.
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 50
#: Initial trial step of each line search; a steepest-descent step (the
#: first of a restart) has length at most this.
INITIAL_STEP = 1.0
#: Relative residual at which a restart stops (``"tol"``).
RESIDUAL_TOL = 1e-13
#: Largest unitarity and symmetry defect ``residual`` accepts in U.
UNITARY_TOL = 1e-8
REORTHO_EVERY = 25
#: Number of (step, gradient change) pairs kept by L-BFGS.
LBFGS_MEMORY = 10
#: Relative gradient norm below which a restart switches to Newton steps.
#: L-BFGS crawls the ill-conditioned valley from 1e-3 down, spending most
#: of a search there, while a dense Newton step at N <= 32 (m <= 528) costs
#: under 10 ms.  At 1e-3 rather than 1e-4 the longest restart of
#: involution(0.5) at N = 16 takes 205 iterations instead of 429, a search
#: at N = 16..32 takes about 0.6 of the time, and the criterion 6 searches,
#: whose N = 64 Newton steps cost 0.3-0.5 s each, take no longer (77-89 s
#: against 89 s).  That holds only with the shift update below: with the
#: shift divided by TR_GROW**2 after a good step, 1e-3 made the N = 64
#: searches about 30 % slower.
NEWTON_GRAD = 1e-3
#: Largest Hessian dimension N (N + 1) / 2 for Newton steps (N <= 90): the
#: dense Hessian and its Cholesky factor take 8 m^2 bytes each, so larger
#: truncations stay with L-BFGS.
NEWTON_MAX_DIM = 4096
#: Trust-region acceptance thresholds on actual / predicted decrease, and the
#: factor by which the Levenberg shift grows after a rejected Newton step or
#: a failed Cholesky try, and shrinks after a step with ratio > TR_EXPAND.
#: The accepted shift falls by about TR_GROW per step near a floor, so
#: shrinking by TR_GROW keeps the next step's first try positive definite
#: (1.05 tries per step for involution(0.5) at N = 16); shrinking by
#: TR_GROW**2 overshot and cost 1.4-1.6 tries per step.
TR_ACCEPT = 0.25
TR_EXPAND = 0.75
TR_GROW = 4.0


@dataclass
class OptimizeOptions:
    """Search settings.

    Each restart stops at the first of: relative residual <=
    ``RESIDUAL_TOL`` (``"tol"``); Riemannian gradient norm ||A||_F <=
    ``grad_tol`` * max(||T||_F^2, 1) (``"grad"``); no step that decreases
    the defect can be found (``"armijo"``); ``max_iters`` accepted steps
    (``"max_iters"``).
    """

    restarts: int = 8
    max_iters: int = 300
    grad_tol: float = 1e-13
    seed: int = 42


@dataclass
class RestartStop:
    """Why one restart stopped.

    ``grad_norm`` is the final ||A||_F / max(||T||_F^2, 1), the quantity
    compared against ``OptimizeOptions.grad_tol``.
    """

    restart: int
    reason: str
    grad_norm: float
    iterations: int
    residual: float


@dataclass
class ResidualReport:
    best_residual: float
    best_U: np.ndarray
    iterations: int
    restarts: int
    trace: list[tuple[int, int, float]] = field(default_factory=list)
    stops: list[RestartStop] = field(default_factory=list)


def _as_matrix(t) -> np.ndarray:
    if isinstance(t, OperatorMatrix):
        t = t.data
    return np.ascontiguousarray(t, dtype=np.complex128)


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _inner(x: np.ndarray, y: np.ndarray):
    """Real Frobenius inner product Re tr(X^H Y), per matrix of a stack.

    Both arguments are complex with a contiguous last axis, so their
    (re, im) pairs are read as one real vector per matrix.
    """
    return np.einsum("...ij,...ij->...", x.view(np.float64), y.view(np.float64))


def _unitarity_defect(u: np.ndarray) -> float:
    n = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


def residual(t, u: np.ndarray) -> float:
    """Normalized defect ||T U - U T^t||_F / ||T||_F for symmetric unitary U."""
    tm = _as_matrix(t)
    u = np.asarray(u, dtype=np.complex128)
    if _unitarity_defect(u) > UNITARY_TOL:
        raise DomainError("U is not unitary within tolerance")
    if np.linalg.norm(u - u.T) > UNITARY_TOL:
        raise DomainError("U is not symmetric within tolerance")
    tnorm = np.linalg.norm(tm)
    return float(np.linalg.norm(tm @ u - u @ tm.T)) / tnorm


def _defect_matrix(tm: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T V V^t - V V^t T^t; V may be an (R, N, N) stack."""
    u = v @ _t(v)
    return tm @ u - u @ tm.T


def _defect_sq(tm: np.ndarray, v: np.ndarray):
    """||T V V^t - V V^t T^t||_F^2; V may be an (R, N, N) stack."""
    r = _defect_matrix(tm, v)
    return _inner(r, r)


def _euclidean_gradient(tm: np.ndarray, v: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ||T V V^t - V V^t T^t||_F^2 with respect to V.

    ``r`` is the defect matrix at V when the caller already has it.
    """
    if r is None:
        r = _defect_matrix(tm, v)
    s = tm.conj().T @ r - r @ tm.conj()
    return 2.0 * (s + _t(s)) @ v.conj()


def _project_tangent(v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Skew-Hermitian coordinate A of the Riemannian gradient V A."""
    w = _t(v).conj() @ grad
    return 0.5 * (w - _t(w).conj())


def _reorthonormalize(v: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(v)
    # fix the phase freedom so the result is a continuous function of v
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.abs(d)
    return q * phases[..., None, :]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _reorthonormalize(z)


def _cayley(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Retraction V (I - D/2)^{-1} (I + D/2) = 2 V (I - D/2)^{-1} - V for skew-Hermitian D.

    V (I - D/2)^{-1} comes from one solve with the transposed system.
    """
    m = np.eye(v.shape[-1]) - 0.5 * d
    w = _t(np.linalg.solve(_t(m), _t(v)))
    return 2.0 * w - v


def _riemannian_gradient(tm: np.ndarray, v: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    return _project_tangent(v, _euclidean_gradient(tm, v, r))


# -- exact Hessian ---------------------------------------------------------------
#
# The defect depends on V only through U = V V^t, and V -> V O (O real
# orthogonal) leaves U fixed, so the gradient A is always i S with S real
# symmetric.  Moving V -> V Cay(i S) changes U to V e^{2iS} V^t up to third
# order, and with Tv = V^H T V the defect becomes ||L(e^{2iS})||^2 for the
# Sylvester map L(X) = Tv X - X Tv^t.  Its gradient in S is Im A and its
# Hessian is
#     h(S) = 8 ||L(S)||^2 - 8 Re <L^* L(I), S^2>,
# written below in the orthonormal basis of real symmetric matrices.


def _sym_basis(n: int):
    ia, ib = np.triu_indices(n)
    scale = np.where(ia == ib, 0.5, np.sqrt(0.5))
    return ia, ib, scale


def _bilinear(ps, weight: float, ia, ib, scale) -> np.ndarray:
    """weight * [sum over P in ps of tr(B_i P B_j P)]_ij for real matrices P.

    The basis is B_i = s_i (e_a e_b^t + e_b e_a^t).  For B_i with indices
    (a, b) and B_j with (c, d) the trace is
    P[a,c] P[d,b] + P[a,d] P[c,b] + P[b,c] P[d,a] + P[b,d] P[c,a],
    which is symmetric in i and j by cyclicity of the trace.  The basis is
    ordered row-major over a <= b, so fixing a gives a contiguous block of
    rows.  Its entries from column (a, a) on are one einsum over the last
    axis of ``v`` and ``w``, whose (c, d) and (d, c) pairings are stacked
    with the weight and the column scales folded into ``v``; the entries
    left of column (a, a) are copied from the rows above.
    """
    n, m = ps[0].shape[0], ia.size
    xs = [p[:, idx] for p in ps for idx in (ia, ib)]
    ys = [p[idx].T for p in ps for idx in (ib, ia)]
    v = np.stack(xs + ys, axis=-1)
    v *= (weight * np.sqrt(0.5) * scale)[:, None]
    w = np.stack(ys + xs, axis=-1)
    out = np.empty((m, m))
    start = 0
    for a in range(n):
        stop = start + n - a
        rows = out[start:stop, start:]
        np.einsum("jq,bjq->bj", v[a, start:], w[a:, start:], out=rows)
        # row (a, a) has scale 1/2 where the other rows have sqrt(1/2)
        rows[0] *= np.sqrt(0.5)
        out[start:stop, :start] = out[:start, start:stop].T
        start = stop
    return out


def _add_shift_term(h: np.ndarray, k: np.ndarray, ia, ib, scale) -> None:
    """Add [tr(B_i K B_j)]_ij for real symmetric K, the matrix of S -> (K S + S K) / 2, to h.

    Only pairs whose index sets (a, b) and (c, d) meet contribute, so the
    entries are added row by row: K[a, c] (1 + [c = b]) at column (c, b) and
    K[b, c] (1 + [c = a]) at column (c, a), for every c.  Within one row the
    columns are distinct, so each scattered add touches an entry once.
    """
    n, m = k.shape[0], ia.size
    pos = np.empty((n, n), dtype=np.intp)
    pos[ia, ib] = pos[ib, ia] = np.arange(m)
    row_starts = np.arange(0, m * m, m)[:, None]
    eye = np.eye(n)
    flat = h.reshape(-1)
    for p, q in ((ia, ib), (ib, ia)):
        cols = pos[q]
        flat[row_starts + cols] += k[p] * (1.0 + eye[q]) * scale[:, None] * scale[cols]


def _hessian(tv: np.ndarray, ia, ib, scale) -> np.ndarray:
    """Hessian of S -> ||L(e^{2iS})||^2 at S = 0 in the symmetric basis.

    It is [tr(B_i K B_j) - 8 Re tr(B_i X B_j Y) - 8 Re tr(B_j X B_i Y)]_ij
    with X = Tv^H and Y = Tv^t.  Y is the conjugate of X, so the two cross
    terms are equal, and Re(conj(Y[a,c]) Y[d,b]) splits into the real and
    imaginary parts of Y, which ``_bilinear`` takes in one pass.
    """
    r0 = tv - tv.T
    p = tv.conj().T @ r0 - r0 @ tv.conj()
    k = 16.0 * (tv.conj().T @ tv).real - 8.0 * p.real
    k = 0.5 * (k + k.T)
    y = tv.T
    h = _bilinear((y.real, y.imag), -16.0, ia, ib, scale)
    _add_shift_term(h, k, ia, ib, scale)
    return h


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^t x = b by forward and back substitution in 64-row blocks.

    numpy has no triangular solver, so each diagonal block takes a general
    solve (an LU of the block) and the rest are matrix-vector updates.  At
    64 rows the LUs cost little: one solve at m = 528 takes 1.2 ms where
    256-row blocks take 3.6 ms, and at m = 2080 7.3 ms where they take
    16 ms.
    """
    x = b.copy()
    edges = list(range(0, b.size, 64)) + [b.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi])
        x[hi:] -= chol[hi:, lo:hi] @ x[lo:hi]
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi])
        x[:lo] -= chol[lo:hi, :lo].T @ x[lo:hi]
    return x


def _stop_reason(res: float, gnorm: float, it: int, opts: OptimizeOptions, gscale: float) -> str:
    """The first stop condition of :class:`OptimizeOptions` that holds, or ""."""
    if res <= RESIDUAL_TOL:
        return "tol"
    if gnorm <= opts.grad_tol * gscale:
        return "grad"
    if it >= opts.max_iters:
        return "max_iters"
    return ""


def _newton(tm, v, f, it, opts, trace, restart):
    """Trust-region Newton steps from V until a stop; returns (V, f, A, it, reason).

    The step solves (H + mu I) s = -g, with H + mu I checked positive
    definite by Cholesky.  The Levenberg shift mu shrinks by TR_GROW after a
    step whose actual decrease matches the quadratic model and grows by
    TR_GROW after a rejected one, which also covers an indefinite H.  If mu
    exceeds the largest diagonal entry of H without a decrease, the restart
    stops as "armijo".
    Each try shifts the diagonal of H in place and restores it before the
    model reads H, so no m x m temporary is made per try.
    """
    n = tm.shape[0]
    tnorm_sq = float(_inner(tm, tm))
    gscale = max(tnorm_sq, 1.0)
    ia, ib, scale = _sym_basis(n)
    mu = None
    while True:
        a = _riemannian_gradient(tm, v)
        gnorm = float(np.linalg.norm(a))
        reason = _stop_reason(np.sqrt(f / tnorm_sq), gnorm, it, opts, gscale)
        if reason:
            return v, f, a, it, reason
        g = (a.imag[ia, ib] + a.imag[ib, ia]) * scale
        h = _hessian(v.conj().T @ tm @ v, ia, ib, scale)
        diag = h.reshape(-1)[:: g.size + 1]
        h_diag = diag.copy()
        h_scale = float(np.max(h_diag))
        mu = max(gnorm if mu is None else mu, 1e-14 * h_scale)
        tries = 0
        while True:
            if mu > h_scale:
                return v, f, a, it, "armijo"
            tries += 1
            np.add(h_diag, mu, out=diag)
            try:
                chol = np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                mu *= TR_GROW
                continue
            finally:
                diag[:] = h_diag
            step = -_cholesky_solve(chol, g)
            predicted = g @ step + 0.5 * step @ (h @ step)
            s_mat = np.zeros((n, n))
            s_mat[ia, ib] = step * scale
            s_mat[ib, ia] += step * scale
            v_new = _cayley(v, 1j * s_mat)
            f_new = float(_defect_sq(tm, v_new))
            ratio = (f_new - f) / predicted if predicted < 0 else -1.0
            if f_new < f and ratio > TR_ACCEPT:
                break
            mu *= TR_GROW
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "restart %d Newton step %d: mu %.3e, %d Cholesky tries, ratio %.4f, f %.12e",
                restart, it + 1, mu, tries, ratio, f_new,
            )
        if ratio > TR_EXPAND:
            mu /= TR_GROW
        v, f = v_new, f_new
        it += 1
        trace.append((it, np.sqrt(f / tnorm_sq)))


def _lbfgs(tm: np.ndarray, v0: np.ndarray, opts: OptimizeOptions):
    """Riemannian L-BFGS on the (R, N, N) stack of starting unitaries ``v0``.

    Restarts leave the stack when a stop condition holds or, with reason
    "", when their gradient norm falls below NEWTON_GRAD for the Newton
    phase (only when N (N + 1) / 2 <= NEWTON_MAX_DIM).  Returns
    (V, f, A, iterations, reason) per restart, in order, and each
    restart's trace of (iteration, relative residual).
    """
    n_r = v0.shape[0]
    tnorm_sq = float(_inner(tm, tm))
    gscale = max(tnorm_sq, 1.0)
    n = tm.shape[0]
    newton_grad = NEWTON_GRAD * gscale if n * (n + 1) // 2 <= NEWTON_MAX_DIM else 0.0
    m = LBFGS_MEMORY
    ids = np.arange(n_r)
    v = v0.copy()
    r = _defect_matrix(tm, v)
    f = _inner(r, r)
    a = _riemannian_gradient(tm, v, r)
    s_mem = np.zeros((n_r, m) + v.shape[1:], dtype=np.complex128)
    y_mem = np.zeros_like(s_mem)
    rho = np.zeros((n_r, m))
    gamma = np.ones(n_r)
    iters = np.zeros(n_r, dtype=int)
    failed = np.zeros(n_r, dtype=bool)
    done = [None] * n_r
    traces = [[(0, np.sqrt(fr / tnorm_sq))] for fr in f]
    k = 0
    while True:
        gnorm = np.sqrt(_inner(a, a))
        keep = np.ones(ids.size, dtype=bool)
        for j in range(ids.size):
            reason = "armijo" if failed[j] else _stop_reason(
                np.sqrt(f[j] / tnorm_sq), gnorm[j], iters[j], opts, gscale
            )
            if reason or gnorm[j] <= newton_grad:
                if not reason and log.isEnabledFor(logging.DEBUG):
                    log.debug(
                        "restart %d hands off to Newton at iteration %d, gradient norm %.3e",
                        ids[j], iters[j], gnorm[j] / gscale,
                    )
                done[ids[j]] = (v[j], f[j], a[j], int(iters[j]), reason)
                keep[j] = False
        if not keep.all():
            ids, v, r, f, a = ids[keep], v[keep], r[keep], f[keep], a[keep]
            gnorm, iters = gnorm[keep], iters[keep]
            s_mem, y_mem, rho, gamma = s_mem[keep], y_mem[keep], rho[keep], gamma[keep]
            if ids.size == 0:
                return done, traces
        # two-loop recursion; slots with rho = 0 are empty or were skipped
        # for lack of curvature and drop out of both loops
        q = a.copy()
        alpha = np.zeros((ids.size, m))
        order = [(k - 1 - j) % m for j in range(m)]
        for j in order:
            alpha[:, j] = rho[:, j] * _inner(s_mem[:, j], q)
            q -= alpha[:, j, None, None] * y_mem[:, j]
        q *= gamma[:, None, None]
        for j in reversed(order):
            beta = rho[:, j] * _inner(y_mem[:, j], q)
            q += (alpha[:, j] - beta)[:, None, None] * s_mem[:, j]
        d = -q
        slope = _inner(a, d)
        fresh = ~rho.any(axis=1) | (slope >= 0.0)
        if fresh.any():
            # steepest descent of length at most INITIAL_STEP when there is
            # no usable curvature information
            rho[fresh] = 0.0
            d[fresh] = -a[fresh] / np.maximum(gnorm[fresh], 1.0)[:, None, None]
            slope[fresh] = _inner(a[fresh], d[fresh])
        step = np.full(ids.size, INITIAL_STEP)
        v_new = _cayley(v, step[:, None, None] * d)
        r_new = _defect_matrix(tm, v_new)
        f_new = _inner(r_new, r_new)
        ok = f_new <= f + ARMIJO_C1 * step * slope
        for _ in range(MAX_HALVINGS - 1):
            if ok.all():
                break
            miss = np.flatnonzero(~ok)
            step[miss] *= 0.5
            v_new[miss] = _cayley(v[miss], step[miss, None, None] * d[miss])
            r_new[miss] = _defect_matrix(tm, v_new[miss])
            f_new[miss] = _inner(r_new[miss], r_new[miss])
            ok[miss] = f_new[miss] <= f[miss] + ARMIJO_C1 * step[miss] * slope[miss]
        failed = ~ok
        k += 1
        if failed.all():
            continue
        v_new[failed], r_new[failed] = v[failed], r[failed]
        if k % REORTHO_EVERY == 0:
            v_new = _reorthonormalize(v_new)
            r_new = _defect_matrix(tm, v_new)
        f_new = _inner(r_new, r_new)
        a_new = _riemannian_gradient(tm, v_new, r_new)
        # the tangent coordinates are carried unchanged from V to V_new
        s_vec = step[:, None, None] * d
        y_vec = a_new - a
        sy = _inner(s_vec, y_vec)
        curved = ok & (sy > 0.0)
        slot = (k - 1) % m
        s_mem[:, slot] = s_vec
        y_mem[:, slot] = y_vec
        rho[:, slot] = np.where(curved, 1.0 / np.where(curved, sy, 1.0), 0.0)
        yy = _inner(y_vec, y_vec)
        gamma = np.where(curved, sy / np.where(curved, yy, 1.0), gamma)
        v, r, f, a = v_new, r_new, f_new, a_new
        iters += ok
        for rid, it, fr in zip(ids[ok], iters[ok], f[ok]):
            traces[rid].append((int(it), np.sqrt(fr / tnorm_sq)))


def _search(tm: np.ndarray, opts: OptimizeOptions, start: np.ndarray | None = None):
    """Run one start, or :func:`optimize`'s seeded restarts when ``start`` is None.

    Returns the report and the best V.
    """
    n = tm.shape[0]
    tnorm_sq = float(_inner(tm, tm))
    if start is None:
        rng = np.random.default_rng(opts.seed)
        n_restarts = max(1, opts.restarts)
        starts = [np.eye(n, dtype=np.complex128)]
        if np.sqrt(_defect_sq(tm, starts[0]) / tnorm_sq) > RESIDUAL_TOL:
            starts += [_random_unitary(rng, n) for _ in range(n_restarts - 1)]
    else:
        n_restarts, starts = 1, [start]
    finals, traces = _lbfgs(tm, np.array(starts), opts)
    stops = []
    for r, (v, f, a, it, reason) in enumerate(finals):
        if not reason:
            v, f, a, it, reason = _newton(tm, v, f, it, opts, traces[r], r)
            finals[r] = (v, f, a, it, reason)
        stops.append(
            RestartStop(
                restart=r,
                reason=reason,
                grad_norm=float(np.linalg.norm(a)) / max(tnorm_sq, 1.0),
                iterations=it,
                residual=float(np.sqrt(max(f, 0.0) / tnorm_sq)),
            )
        )
    best = min(range(len(stops)), key=lambda r: stops[r].residual)
    v_best = finals[best][0]
    report = ResidualReport(
        best_residual=stops[best].residual,
        best_U=v_best @ v_best.T,
        iterations=sum(stop.iterations for stop in stops),
        restarts=n_restarts,
        trace=[(r, it, res) for r, tr in enumerate(traces) for it, res in tr],
        stops=stops,
    )
    return report, v_best


def optimize(t, opts: OptimizeOptions | None = None) -> ResidualReport:
    """Minimize the conjugation defect over symmetric unitaries U = V V^t.

    Restart 0 starts from the identity, which ends the search at once if
    it already meets ``RESIDUAL_TOL``; otherwise the remaining restarts start
    from seeded random unitaries and all of them run together.  Each
    restart stops on the first condition listed in
    :class:`OptimizeOptions`, and ``ResidualReport.stops`` records which.
    Deterministic for a fixed seed.  Non-convergence is a valid report,
    not an error.
    """
    return _search(_as_matrix(t), opts or OptimizeOptions())[0]


def schedule_search(phi, truncations, opts: OptimizeOptions | None = None) -> list[ResidualReport]:
    """One search per truncation of C_phi, each warm-started from the one before.

    The first truncation gets :func:`optimize`'s seeded restarts.  Each
    later one makes a single start: the previous best V padded with an
    identity block.  Entry (m, j) of the operator matrix does not depend on
    the truncation, so the previous matrix is the leading block of the next
    one, the block on which the padded U = V V^t is the previous optimum.
    Raises :class:`DomainError` if the truncations decrease.
    """
    truncations = list(truncations)
    if any(m < n for n, m in zip(truncations, truncations[1:])):
        raise DomainError(f"truncations must not decrease, got {truncations}")
    opts = opts or OptimizeOptions()
    reports, v = [], None
    for n in truncations:
        start = None
        if v is not None:
            start = np.eye(n, dtype=np.complex128)
            start[: v.shape[0], : v.shape[0]] = v
        report, v = _search(_as_matrix(matrix_of_composition(phi, n)), opts, start)
        reports.append(report)
    return reports
