"""Numerical kernels: truncated Cauchy products, power-series reciprocals,
the powers of a linear fractional map, and composition with such a map.

Column k of the truncated matrix of C_phi, phi = (az + b)/(cz + d), holds
the Taylor coefficients of phi**k.  Since (cz + d) phi**(k+1) = (az + b) phi**k,
comparing the coefficients of z**m gives the three-term recurrence

    M[m, k+1] = (b M[m, k] + a M[m-1, k] - c M[m-1, k+1]) / d,

whose coefficients do not depend on (m, k).  Swept one antidiagonal at a
time it takes n + k - 2 sequential steps.  A block that is not square is
instead grown by doubling along its long side: column j + 1 is phi times
column j, and row m + 1 is psi times row m for m >= 1, where
psi(w) = (aw - c)/(d - bw) is the adjoint symbol (Cowen, Integral Equations
Operator Theory 11, 1988), which maps the disk into itself whenever phi does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExpansionDomainError
from .mobius import pole_outside_closed_disk


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
    lie outside the closed unit disk (``mobius.pole_outside_closed_disk``).
    A square block is swept by the recurrence and a block with k > n doubles
    along its columns; on both, entry (m, j) does not depend on n or k, bit
    for bit.  A block with k < n doubles along its rows, where entry (m, j)
    moves with n and k at rounding level.
    """
    a, b, c, d = (complex(x) for x in coeffs)
    if abs(c) <= 1e-15:
        c = 0j  # the affine case
    if not pole_outside_closed_disk(c, d):
        raise ExpansionDomainError(f"the pole of {coeffs} lies in the closed unit disk")
    if n == 0 or k == 0:
        return np.zeros((n, k), dtype=np.complex128)
    if k < n:
        return _rows_by_doubling(a, b, c, d, n, k)
    if k > n:
        return _columns_by_doubling(a, b, c, d, n, k)
    # row 0 is a zero row standing for m = -1, and column 0 holds phi**0
    out = np.zeros((n + 1, k), dtype=np.complex128)
    out[1, 0] = 1.0
    _sweep(out, b / d, a / d, c / d)
    return out[1:]


def _sweep(grid, bd, ad, cd):
    """Fill ``grid[1:, 1:]`` from its first row and column by the recurrence,
    one antidiagonal at a time: entry (i, j) needs only antidiagonals i + j - 1
    and i + j - 2, and in the flattened C-ordered block an antidiagonal is one
    strided slice."""
    rows, cols = grid.shape
    flat = grid.reshape(-1)
    step = cols - 1
    for s in range(2, rows + cols - 1):
        # entries (i, s - i) with 1 <= i < rows and 1 <= s - i < cols
        lo, hi = max(1, s - cols + 1), min(rows - 1, s - 1)
        start = lo * cols + s - lo
        stop = start + (hi - lo) * step + 1
        acc = bd * flat[start - 1 : stop - 1 : step]
        acc += ad * flat[start - cols - 1 : stop - cols - 1 : step]
        acc -= cd * flat[start - cols : stop - cols : step]
        flat[start:stop:step] = acc


def _baby_steps(n: int) -> int:
    """Baby steps p of ``composer``: 2 sqrt(n), at most 63.  With one OpenBLAS
    thread, a block, an apply and an adjoint of elliptic3 take 2.8 ms at
    n = 512 (p = 44; 3.2 ms at p = 63), and 95 ms and 0.66 s at n = 4685 and
    12 422 (p = 63; 145 ms and 1.19 s at p = 32)."""
    return max(1, min(2 * math.isqrt(n), 63))


def _fft_length(m: int) -> int:
    """Smallest 2**i 5**j >= m, a fast FFT length: 10 000 for m = 9369."""
    return min(5**j << ((m - 1) // 5**j).bit_length() for j in range(m.bit_length()))


def composer(coeffs, n: int):
    """apply and adjoint of the compression M of C_phi to n terms, from one block.

    apply(f) is the first n coefficients of f o phi, f of any length, by baby
    and giant steps (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): with
    P = phi**0 .. phi**(p-1) and s = phi**p, f o phi = sum_q s**q (P f_q), f_q
    the q-th slice of p coefficients of f, by Horner's rule with FFT products.
    adjoint(x), x of length n, is M^H x by the same scheme transposed: slice q
    is P^H (T_s^H)**q x, T_s^H the correlation with s.  Every step is a
    contraction, so it is as accurate as M^H itself.
    """
    p = _baby_steps(n)
    block = power_columns(coeffs, n, p + 1)
    baby = block[:, :p]
    size = _fft_length(2 * n - 1)  # a cyclic product of this length is exact below n
    giant = np.fft.fft(block[:, p], size)
    cogiant = giant.conj()

    def apply(f) -> np.ndarray:
        f = np.asarray(f, dtype=np.complex128)
        slices = np.zeros((-(-f.size // p), p), dtype=np.complex128)
        slices.reshape(-1)[: f.size] = f
        last = len(slices) - 1
        acc = np.zeros(n, dtype=np.complex128)
        for lo in range(last - last % p, -1, -p):  # p slices at a time: O(np) memory
            partial = baby @ slices[lo : lo + p].T
            for q in range(partial.shape[1] - 1, -1, -1):
                if lo + q < last:
                    acc = np.fft.ifft(np.fft.fft(acc, size) * giant)[:n]
                acc += partial[:, q]
        return acc

    def adjoint(z) -> np.ndarray:
        out = np.empty((-(-n // p), p), dtype=np.complex128)
        run = np.empty((p, n), dtype=np.complex128)  # conj of p steps, for one product
        for q in range(len(out)):
            if q:
                z = np.fft.ifft(np.fft.fft(z, size) * cogiant)[:n]
            run[q % p] = z.conj()
            if q % p == p - 1 or q == len(out) - 1:
                out[q - q % p : q + 1] = (run[: q % p + 1] @ baby).conj()
        return out.reshape(-1)[:n]

    return apply, adjoint


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
