"""mpmath reference for the composition matrix, made apart from the program.

Column k of the matrix of C_phi holds the first N Taylor coefficients of
phi^k.  Here phi = (az + b)/(cz + d) is expanded as
((b + az)/d) * sum_m (-c/d)^m z^m and raised to powers by truncated Cauchy
products, all at 30 significant digits.
"""

from __future__ import annotations

import mpmath

DIGITS = 30
#: Largest entry-wise difference accepted between the program and this reference.
TOL = 1e-12


def power_matrix(coeffs, n: int):
    """n x n list of columns: column k is phi^k to n terms, as mpc."""
    with mpmath.workdps(DIGITS):
        a, b, c, d = (mpmath.mpc(z.real, z.imag) for z in coeffs)
        t = -c / d
        series = [b / d] + [(b / d) * t**m + (a / d) * t ** (m - 1) for m in range(1, n)]
        col = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (n - 1)
        cols = [col]
        for _ in range(1, n):
            col = [mpmath.fsum(col[j] * series[m - j] for j in range(m + 1)) for m in range(n)]
            cols.append(col)
        return cols


def max_error(coeffs, data) -> float:
    """Largest |program - reference| over the entries of the n x n ``data``."""
    n = data.shape[0]
    cols = power_matrix(coeffs, n)
    worst = 0.0
    for k, col in enumerate(cols):
        for m, ref in enumerate(col):
            worst = max(worst, abs(complex(data[m, k]) - complex(ref)))
    return worst
