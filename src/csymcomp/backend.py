"""Numerical kernels: truncated Cauchy products, power-series reciprocals,
and the powers of a linear fractional map.

Column k of the truncated matrix of C_phi, phi = (az + b)/(cz + d), holds
the Taylor coefficients of phi**k.  Since (cz + d) phi**(k+1) = (az + b) phi**k,
comparing the coefficients of z**m gives the three-term recurrence

    M[m, k+1] = (b M[m, k] + a M[m-1, k] - c M[m-1, k+1]) / d,

so every column follows from the one before it in O(N) work.
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


def power_columns(coeffs, n: int, k: int) -> np.ndarray:
    """n x k matrix whose column j holds the first n coefficients of phi**j.

    ``coeffs`` is (a, b, c, d) for phi = (az + b)/(cz + d), whose pole must
    lie outside the closed unit disk.  The recurrence is swept over
    antidiagonals: entry (m, j) needs only antidiagonals m + j - 1 and
    m + j - 2, and in the flattened C-ordered array an antidiagonal is one
    strided slice.
    """
    a, b, c, d = (complex(x) for x in coeffs)
    if d == 0:
        raise ExpansionDomainError("d = 0: the map has a pole at 0")
    if abs(c) <= 1e-15:
        c = 0j  # the affine case, as in ``hardy.series_of_mobius``
    elif abs(d / c) <= 1.0 + 1e-12:
        raise ExpansionDomainError(f"pole {-d / c} lies in the closed unit disk")
    # row 0 is a zero row standing for m = -1; row m + 1 holds coefficient m
    out = np.zeros((n + 1, k), dtype=np.complex128)
    if k:
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
