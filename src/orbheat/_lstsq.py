"""Least squares for flat.fit_expansion, in the standard library only.

One one-sided Jacobi on the columns of the design matrix A, never the
normal equations: its rotations turn the columns of a power-of-two multiple
scale * A into orthogonal columns W = scale * A * V, with V orthogonal.  The
norms of W's columns give A's condition number, and V and W give the
least-squares solution; one refinement step on an exactly rounded residual
follows.  flat imports this module on its first fit, so a process that
samples traces without fitting them never compiles it.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, combinations
from operator import mul

_EPS = sys.float_info.epsilon
# Veltkamp's constant 2^27 + 1: hi = u - (u - a) with u = _SPLIT * a and
# lo = a - hi split a double a into 26-bit halves.
_SPLIT = 134217729.0
# The refinement step splits and multiplies design entries, samples and
# coefficients; below this magnitude none of those products overflows.
_REFINE_BELOW = 2.0**500
# Cyclic Jacobi converges quadratically and takes 3 or 4 sweeps on the fit
# designs, the last of which only checks; the cap only bounds the loop.
_JACOBI_SWEEPS = 30


def jacobi(columns) -> tuple:
    """One-sided Jacobi on the m x n matrix A with the given columns, m >= n.

    Returns (w, v, scale, norms) with scale * A * V = W, given by their
    columns: V orthogonal and W's columns orthogonal to within _EPS of the
    product of their norms.  norms holds those norms, which over scale are
    A's singular values, each with a small relative error, the smallest
    included.  scale is the power of two that brings A's largest entry
    below 1.  The norms come from math.hypot, which squares no entry: the
    square of a column near 1e-200 underflows.
    Equal columns rotate to an exact zero column.
    """
    scale = 2.0 ** -math.frexp(max(map(abs, chain(*columns))))[1]
    w = [[a * scale for a in column] for column in columns]
    v = [[float(i == j) for i in range(len(w))] for j in range(len(w))]
    norms = [math.hypot(*column) for column in w]
    pairs = list(combinations(range(len(w)), 2))
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q in pairs:
            wp, wq = w[p], w[q]
            gamma = sum(map(mul, wp, wq))
            norm_p, norm_q = norms[p], norms[q]
            if abs(gamma) <= _EPS * norm_p * norm_q:
                continue
            rotated = True
            # The rotation by the smaller root t of t^2 + 2 zeta t = 1
            # makes the pair orthogonal.
            zeta = (norm_q - norm_p) / (2.0 * gamma) * (norm_q + norm_p)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            w[p] = [c * x - s * y for x, y in zip(wp, wq)]
            w[q] = [s * x + c * y for x, y in zip(wp, wq)]
            vp, vq = v[p], v[q]
            v[p] = [c * x - s * y for x, y in zip(vp, vq)]
            v[q] = [s * x + c * y for x, y in zip(vp, vq)]
            norms[p] = math.hypot(*w[p])
            norms[q] = math.hypot(*w[q])
        if not rotated:
            break
    return w, v, scale, norms


def condition_number(norms) -> float:
    """sigma_max / sigma_min of A, from jacobi's norms of W's columns.

    A zero column of W makes A singular and gives inf.
    """
    return max(norms) / min(norms) if min(norms) > 0.0 else math.inf


def _pseudo_solve(w, v, scale, norms, b) -> list:
    """scale V diag(1/sigma^2) W^T b, the least-squares x of A x ~ b.

    sigma is the norm of a column w of W.  Each (w.b) / sigma * (scale / sigma)
    divides before it multiplies: sigma^2 underflows where sigma is near 1e-200.
    """
    coefficients = [
        sum(map(mul, column, b)) / sigma * (scale / sigma) for column, sigma in zip(w, norms)
    ]
    return [sum(map(mul, row, coefficients)) for row in zip(*v)]


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
        # h is the high half of a, bound once per entry.
        parts += (p, [
            ((h * ch - q) + h * cl + (a - h) * ch) + (a - h) * cl
            for a, q in zip(column, p) for h in [_SPLIT * a - (_SPLIT * a - a)]
        ])
    return list(map(math.fsum, zip(*parts)))


def solve(w, v, scale, norms, columns, values) -> tuple:
    """The least-squares x of A x ~ values, and ||A x - values||_2.

    A is given by its columns and by jacobi's (w, v, scale, norms) of
    them.  The solution takes one refinement step on the residual rounded
    once per row, which brings it to within a few ulps of the exact
    least-squares solution; the step is skipped where an entry reaches
    _REFINE_BELOW.
    """
    x = _pseudo_solve(w, v, scale, norms, values)
    if max(map(abs, chain(values, x, *columns))) < _REFINE_BELOW:
        correction = _pseudo_solve(w, v, scale, norms, exact_residual(values, columns, x))
        x = list(map(float.__add__, x, correction))
    residual = list(values)
    for column, c in zip(columns, x):
        residual = [r - c * a for r, a in zip(residual, column)]
    return x, math.hypot(*residual)
