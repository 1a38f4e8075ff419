"""Numerical kernels: truncated Cauchy products, power-series reciprocals,
and the powers of a linear fractional map.

Column k of the truncated matrix of C_phi, phi = (az + b)/(cz + d), holds
the Taylor coefficients of phi**k.  Since (cz + d) phi**(k+1) = (az + b) phi**k,
comparing the coefficients of z**m gives the three-term recurrence

    M[m, k+1] = (b M[m, k] + a M[m-1, k] - c M[m-1, k+1]) / d,

whose coefficients do not depend on (m, k).  Swept one antidiagonal at a
time it takes n + k - 2 sequential steps.  Blocked into B x B tiles it takes
about (n + k) / B: the interior of every tile is one fixed linear map, the
transfer matrix, of the row above it and the column left of it, so each
antidiagonal of tiles is one batch of products with that matrix (Irigoin
and Triolet, "Supernode partitioning", POPL 1988).  A thin block is instead
grown by doubling along its long side: column j + 1 is phi times column j,
and row m + 1 is psi times row m for m >= 1, where psi(w) = (aw - c)/(d - bw)
is the adjoint symbol (Cowen, Integral Equations Operator Theory 11, 1988),
which maps the disk into itself whenever phi does.
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
# matrix products; the tile wavefront costs its transfer matrix (about
# 0.3 ms) plus one product per antidiagonal of tiles.  Measured with one
# OpenBLAS thread, doubling wins by 2.4x to 5.7x where the short side is at
# most 21 (64 x 16, 512 x 21, 7 x 512) and loses by up to 1.5x at a short
# side of 64 (256 x 64, 6144 x 64); the threshold stays at 64 so that the
# blocks it selects keep their values bit for bit.  Square blocks never
# qualify, so every operator matrix comes from the tile wavefront.
_DOUBLING_MAX_SIDE = 64
_DOUBLING_ASPECT = 4

# Side of the tiles of the wavefront.  A tile costs 2B + 1 multiply-adds
# per entry, and each antidiagonal of tiles about 6 us of numpy calls, so
# small tiles pay in steps and large ones in products.  Measured on a 2-core
# Xeon with one OpenBLAS thread (medians of 15): B = 8 builds 512 x 512 in
# 3.9 ms and 512 x 178 in 1.5 ms, B = 16 in 5.0 ms and 2.1 ms, against 7 to
# 14 ms and 3.7 to 8.5 ms for the plain antidiagonal sweep; B = 4, 6, 10 and
# 12 are no faster than 8 at these shapes or at 2048 x 2048.
_TILE = 8


def power_columns(coeffs, n: int, k: int) -> np.ndarray:
    """n x k matrix whose column j holds the first n coefficients of phi**j.

    ``coeffs`` is (a, b, c, d) for phi = (az + b)/(cz + d), whose pole must
    lie outside the closed unit disk.  Thin blocks (see
    ``_DOUBLING_MAX_SIDE``) are grown by doubling; all others, squares
    included, by the tile wavefront of the recurrence.  Either way entry
    (m, j) does not depend on n or k, bit for bit.
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
    return _tiled(b / d, a / d, c / d, n, k)


def _sweep(grid, bd, ad, cd):
    """Fill ``grid[..., 1:, 1:]`` from its first row and column by the
    recurrence, one antidiagonal at a time: entry (i, j) needs only
    antidiagonals i + j - 1 and i + j - 2, and in the flattened C-ordered
    last two axes an antidiagonal is one strided slice."""
    rows, cols = grid.shape[-2:]
    flat = grid.reshape(grid.shape[:-2] + (rows * cols,))
    step = cols - 1
    for s in range(2, rows + cols - 1):
        # entries (i, s - i) with 1 <= i < rows and 1 <= s - i < cols
        lo, hi = max(1, s - cols + 1), min(rows - 1, s - 1)
        start = lo * cols + s - lo
        stop = start + (hi - lo) * step + 1
        acc = bd * flat[..., start - 1 : stop - 1 : step]
        acc += ad * flat[..., start - cols - 1 : stop - cols - 1 : step]
        acc -= cd * flat[..., start - cols : stop - cols : step]
        flat[..., start:stop:step] = acc


def _transfer(bd, ad, cd):
    """(2B + 1) x B**2 matrix, B = ``_TILE``, that maps the boundary of a
    B x B tile to its interior in row-major order.

    The boundary is the row above the tile from its corner (B + 1 entries),
    then the column left of it (B entries).  Row e is the interior that the
    recurrence fills from the unit impulse on boundary entry e.
    """
    t = _TILE
    grid = np.zeros((2 * t + 1, t + 1, t + 1), dtype=np.complex128)
    grid[np.arange(t + 1), 0, np.arange(t + 1)] = 1.0
    grid[np.arange(t + 1, 2 * t + 1), np.arange(1, t + 1), 0] = 1.0
    _sweep(grid, bd, ad, cd)
    return grid[:, 1:, 1:].reshape(2 * t + 1, t * t)


def _tiled(bd, ad, cd, n, k):
    """The recurrence over antidiagonals of B x B tiles, B = ``_TILE``.

    Row 0 of the work array is a zero row standing for m = -1, and column 0
    holds phi**0; the tiles cover rows 1.. and columns 1.., rounded up to
    whole tiles.  The tiles of one antidiagonal lie at equal strides in the
    flattened array, so their boundaries are read and their interiors
    written through strided views, with one product by the transfer matrix
    per tile.  That product has a fixed shape, so entry (m, j) does not
    depend on how many tiles share its antidiagonal, that is on n or k.
    """
    t = _TILE
    tile_rows, tile_cols = -(-n // t), -(-(k - 1) // t)
    cols = tile_cols * t + 1
    out = np.zeros((tile_rows * t + 1, cols), dtype=np.complex128)
    out[1, 0] = 1.0
    if tile_cols:
        transfer = _transfer(bd, ad, cd)
        item = out.itemsize
        hop = t * (cols - 1) * item  # from tile (i, j) to tile (i + 1, j - 1)
        for s in range(tile_rows + tile_cols - 1):
            lo, hi = max(0, s - tile_cols + 1), min(tile_rows - 1, s)
            count = hi - lo + 1
            at = item * t * (lo * cols + s - lo)  # corner of tile (lo, s - lo)
            top = np.ndarray((count, t + 1), out.dtype, out, at, (hop, item))
            left = np.ndarray((count, t), out.dtype, out, at + cols * item, (hop, cols * item))
            inner = np.ndarray((count, t, t), out.dtype, out, at + (cols + 1) * item, (hop, cols * item, item))
            boundary = np.concatenate((top, left), axis=1)
            inner[...] = np.matmul(boundary[:, None, :], transfer).reshape(count, t, t)
    return out[1 : n + 1, :k]


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
