"""Numerical kernels: truncated Cauchy products, power-series reciprocals,
and the powers of a linear fractional map.

Column k of the truncated matrix of C_phi, phi = (az + b)/(cz + d), holds
the Taylor coefficients of phi**k.  Since (cz + d) phi**(k+1) = (az + b) phi**k,
comparing the coefficients of z**m gives the three-term recurrence

    M[m, k+1] = (b M[m, k] + a M[m-1, k] - c M[m-1, k+1]) / d,

which fills an n x k block in n + k - 2 antidiagonal steps.  A thin block
is instead grown by doubling along its long side: column j + 1 is phi times
column j, and row m + 1 is psi times row m for m >= 1, where
psi(w) = (aw - c)/(d - bw) is the adjoint symbol (Cowen, Integral
Equations Operator Theory 11, 1988), which maps the disk into itself
whenever phi does.
"""

from __future__ import annotations

import numpy as np

from .errors import ExpansionDomainError


def backend_name() -> str:
    """Name of the kernel implementation, recorded in reports."""
    return "python"


def cauchy_product(f, g, n: int) -> np.ndarray:
    """First n coefficients of the product of two coefficient vectors."""
    f = np.asarray(f, dtype=np.complex128)[:n]
    g = np.asarray(g, dtype=np.complex128)[:n]
    out = np.zeros(n, dtype=np.complex128)
    if f.size and g.size:
        conv = np.convolve(f, g)
        m = min(n, conv.size)
        out[:m] = conv[:m]
    return out


def reciprocal(f, n: int) -> np.ndarray:
    """First n coefficients of 1/f via Newton iteration; requires f[0] != 0."""
    f = np.asarray(f, dtype=np.complex128)[:n]
    if f[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    g = np.array([1.0 / f[0]], dtype=np.complex128)
    m = 1
    while m < n:
        m = min(2 * m, n)
        fg = cauchy_product(f[:m], g, m)
        two_minus = -fg
        two_minus[0] += 2.0
        g = cauchy_product(g, two_minus, m)
    return g


# A block takes the doubling path when its short side is at most
# ``_DOUBLING_MAX_SIDE`` and its long side is at least ``_DOUBLING_ASPECT``
# times longer.  Doubling costs about long * short**2 multiply-adds in a few
# matrix products; the sweep costs about 8 us of numpy overhead per
# antidiagonal.  Measured with one OpenBLAS thread, doubling wins at every
# such shape from 64 x 16 to 6144 x 64 (by 1.6x at 256 x 64, 36x at
# 512 x 2), and loses once the short side passes about 100 (512 x 128,
# 512 x 178).  Square blocks never qualify, so every operator matrix comes
# from the sweep.
_DOUBLING_MAX_SIDE = 64
_DOUBLING_ASPECT = 4


def power_columns(coeffs, n: int, k: int) -> np.ndarray:
    """n x k matrix whose column j holds the first n coefficients of phi**j.

    ``coeffs`` is (a, b, c, d) for phi = (az + b)/(cz + d), whose pole must
    lie outside the closed unit disk.  Thin blocks (see
    ``_DOUBLING_MAX_SIDE``) are grown by doubling; all others, squares
    included, by the antidiagonal sweep of the recurrence.
    """
    a, b, c, d = (complex(x) for x in coeffs)
    if d == 0:
        raise ExpansionDomainError("d = 0: the map has a pole at 0")
    if abs(c) <= 1e-15:
        c = 0j  # the affine case, as in ``hardy.series_of_mobius``
    elif abs(d / c) <= 1.0 + 1e-12:
        raise ExpansionDomainError(f"pole {-d / c} lies in the closed unit disk")
    if n == 0 or k == 0:
        return np.zeros((n, k), dtype=np.complex128)
    short = min(n, k)
    if short <= _DOUBLING_MAX_SIDE and _DOUBLING_ASPECT * short <= max(n, k):
        if k < n:
            return _rows_by_doubling(a, b, c, d, n, k)
        return _columns_by_doubling(a, b, c, d, n, k)
    return _sweep(a, b, c, d, n, k)


def _sweep(a, b, c, d, n, k):
    """The recurrence over antidiagonals: entry (m, j) needs only
    antidiagonals m + j - 1 and m + j - 2, and in the flattened C-ordered
    array an antidiagonal is one strided slice."""
    # row 0 is a zero row standing for m = -1; row m + 1 holds coefficient m
    out = np.zeros((n + 1, k), dtype=np.complex128)
    out[1, 0] = 1.0
    flat = out.reshape(-1)
    bd, ad, cd = b / d, a / d, c / d
    step = k - 1
    for s in range(1, n + k - 1):
        # entries (m, s - m) with 0 <= m < n and 1 <= s - m < k
        lo, hi = max(0, s - k + 1), min(n - 1, s - 1)
        if lo > hi:
            continue
        start = (lo + 1) * k + s - lo
        stop = start + (hi - lo) * step + 1
        acc = bd * flat[start - 1 : stop - 1 : step]
        acc += ad * flat[start - k - 1 : stop - k - 1 : step]
        acc -= cd * flat[start - k : stop - k : step]
        flat[start:stop:step] = acc
    return out[1:]


def _geometric(t: complex, n: int) -> np.ndarray:
    """1, t, t**2, ..., t**(n-1)."""
    out = np.full(n, t, dtype=np.complex128)
    out[0] = 1.0
    return np.cumprod(out)


def _lower_toeplitz(s: np.ndarray) -> np.ndarray:
    """Matrix of multiplication by the series s, truncated to len(s) terms."""
    lag = np.subtract.outer(np.arange(s.size), np.arange(s.size))
    return np.where(lag >= 0, s[np.maximum(lag, 0)], 0)


def _orbit(step: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """Columns first, step @ first, ..., step**(count-1) @ first.

    By doubling: the first m columns times step**m give the next m, so
    about 2 log2(count) matrix products suffice.
    """
    out = np.empty((first.size, count), dtype=np.complex128)
    out[:, 0] = first
    done, power = 1, step
    while done < count:
        m = min(done, count - done)
        out[:, done : done + m] = power @ out[:, :m]
        done += m
        if done < count:
            power = power @ power
    return out


def _columns_by_doubling(a, b, c, d, n, k):
    """Short columns: column j + 1 is phi times column j."""
    t = _geometric(-c / d, n)
    phi = (b / d) * t
    phi[1:] += (a / d) * t[:-1]
    first = np.zeros(n, dtype=np.complex128)
    first[0] = 1.0
    return _orbit(_lower_toeplitz(phi), first, k)


def _rows_by_doubling(a, b, c, d, n, k):
    """Short rows: row m of the block is the series in w of the coefficient
    of z**m in 1/(1 - w phi(z)), which is psi**(m-1) times row 1 for m >= 1.

    Row 0 is (b/d)**j and row 1 is j (b/d)**(j-1) (ad - bc)/d**2.
    """
    t = _geometric(b / d, k)
    out = np.empty((n, k), dtype=np.complex128)
    out[0] = t
    if n > 1:
        row1 = np.zeros(k, dtype=np.complex128)
        row1[1:] = np.arange(1, k) * t[:-1] * ((a * d - b * c) / d**2)
        psi = (-c / d) * t
        psi[1:] += (a / d) * t[:-1]
        out[1:] = _orbit(_lower_toeplitz(psi), row1, n - 1).T
    return out
