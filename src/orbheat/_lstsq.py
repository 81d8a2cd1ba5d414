"""Least squares for flat.fit_expansion, in the standard library only.

A Householder QR of the design matrix, never the normal equations; the
condition number from a one-sided Jacobi on R; back-substitution and one
refinement step on an exactly rounded residual.  flat imports this module
on its first fit, so a process that samples traces without fitting them
never compiles it.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from operator import mul

_EPS = sys.float_info.epsilon
# Veltkamp's constant 2^27 + 1: hi = u - (u - a) with u = _SPLIT * a and
# lo = a - hi split a double a into 26-bit halves.
_SPLIT = 134217729.0
# The refinement step splits and multiplies design entries, samples and
# coefficients; below this magnitude none of those products overflows.
_REFINE_BELOW = 2.0**500
# Cyclic Jacobi converges quadratically and takes 2 or 3 sweeps on the fit
# designs; the cap only bounds the loop.
_JACOBI_SWEEPS = 30


def householder_qr(columns) -> tuple:
    """Householder QR of the m x n matrix with the given columns, m >= n.

    Returns the reflectors (k, v, tau) and R as n rows.  Each v starts with
    1 and no entry of it exceeds 1, so no product overflows.  A column with
    nothing left to reflect gets no reflector and a zero on R's diagonal.
    """
    work = [list(column) for column in columns]
    reflectors = []
    for k, column in enumerate(work):
        x = column[k:]
        norm = math.hypot(*x)
        if norm == 0.0:
            continue
        # alpha has the sign opposite to x[0], so x[0] - alpha cancels no digits.
        alpha = -math.copysign(norm, x[0])
        d = x[0] - alpha
        reflector = (k, [1.0] + [xi / d for xi in x[1:]], -d / alpha)
        reflectors.append(reflector)
        column[k] = alpha
        for later in work[k + 1:]:
            _reflect(*reflector, later)
    rows = [[0.0] * i + list(row[i:]) for i, row in zip(range(len(work)), zip(*work))]
    return reflectors, rows


def _reflect(k, v, tau, y) -> None:
    """Map entries k.. of y, in place, to y - tau (v.y) v."""
    tail = y[k:]
    f = tau * sum(map(mul, v, tail))
    y[k:] = [a - f * w for a, w in zip(tail, v)]


def apply_qt(reflectors, vector) -> list:
    """Q^T vector, for the Q of householder_qr."""
    out = list(vector)
    for reflector in reflectors:
        _reflect(*reflector, out)
    return out


def back_substitute(rows, d) -> list:
    """The x with R x = d[:n], for the upper-triangular R given by rows."""
    x = [0.0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        x[i] = (d[i] - sum(map(mul, row[i + 1:], x[i + 1:]))) / row[i]
    return x


def condition_number(rows) -> float:
    """sigma_max / sigma_min of the square matrix R with the given rows.

    A zero on R's diagonal makes it singular, whatever rounding would leave
    in its smallest computed singular value, so it gives inf, as does a
    zero singular value.  Otherwise one-sided Jacobi: rotate pairs of rows
    until every pair is orthogonal to within _EPS of the product of their
    norms; the row norms are then the singular values, each with a small
    relative error, the smallest included.  The rows are first scaled by a
    power of two to a largest entry below 1, so no square overflows.
    """
    if not all(row[i] for i, row in enumerate(rows)):
        return math.inf
    scale = 2.0 ** -math.frexp(max(map(abs, chain(*rows))))[1]
    rows = [[a * scale for a in row] for row in rows]
    norms = [sum(map(mul, row, row)) for row in rows]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(len(rows) - 1):
            for q in range(p + 1, len(rows)):
                rp, rq = rows[p], rows[q]
                gamma = sum(map(mul, rp, rq))
                if abs(gamma) <= _EPS * math.sqrt(norms[p] * norms[q]):
                    continue
                rotated = True
                # The rotation by the smaller root t of t^2 + 2 zeta t = 1
                # makes the pair orthogonal.
                zeta = (norms[q] - norms[p]) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                rows[p], rows[q] = (
                    [c * x - s * y for x, y in zip(rp, rq)],
                    [s * x + c * y for x, y in zip(rp, rq)],
                )
                # Recomputed, not updated by -+ t gamma: near a zero
                # singular value the update can round below zero.
                norms[p] = sum(map(mul, rows[p], rows[p]))
                norms[q] = sum(map(mul, rows[q], rows[q]))
        if not rotated:
            break
    sigmas = [math.hypot(*row) for row in rows]
    return max(sigmas) / min(sigmas) if min(sigmas) > 0.0 else math.inf


def exact_residual(values, columns, x) -> list:
    """values - A x with A given by its columns, each row rounded once.

    Veltkamp's constant splits both factors of each product a * c into
    26-bit halves whose pairwise products are exact, so Dekker's error term
    e = a * c - p of the rounded product p is exact too; fsum adds the
    values and every p and e without error.
    """
    parts = [values]
    for column, c in zip(columns, x):
        c = -c
        u = _SPLIT * c
        ch = u - (u - c)
        cl = c - ch
        p = [a * c for a in column]
        his = [u - (u - a) for a, u in zip(column, map(_SPLIT.__mul__, column))]
        parts += (p, [
            ((h * ch - q) + h * cl + (a - h) * ch) + (a - h) * cl
            for a, h, q in zip(column, his, p)
        ])
    return list(map(math.fsum, zip(*parts)))


def solve(reflectors, rows, columns, values) -> tuple:
    """The least-squares x of A x ~ values, and ||A x - values||_2.

    A is given by its columns and by its QR from householder_qr.  The QR
    solution takes one refinement step on the residual rounded once per
    row, which brings it to within a few ulps of the exact least-squares
    solution; the step is skipped where an entry reaches _REFINE_BELOW.
    """
    x = back_substitute(rows, apply_qt(reflectors, values))
    if max(map(abs, chain(values, x, *columns))) < _REFINE_BELOW:
        correction = back_substitute(rows, apply_qt(reflectors, exact_residual(values, columns, x)))
        x = list(map(float.__add__, x, correction))
    residual = list(values)
    for column, c in zip(columns, x):
        residual = [r - c * a for r, a in zip(residual, column)]
    return x, math.hypot(*residual)
