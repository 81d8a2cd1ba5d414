"""Exact least squares for flat.fit_expansion, in the standard library only.

The fit's design A has three columns, t^-1, t^-1/2 and ones for t^0;
callers pass the first two, and the ones column is implied.  Every float
is an int times a power of two, so A and the samples y become int
vectors, and the normal equations G x = A^T y, G = A^T A, hold exactly in
ints; exact arithmetic makes their squared conditioning harmless.  The
solution adj(G) A^T y / det(G) is rounded once, by int true division,
which Python rounds correctly, and det(G) = 0 is an exact test for a
singular design.  The condition number of A is sqrt(lambda_max(G)
lambda_max(G^-1)), read from the largest roots of G's characteristic
polynomial and of its reverse; with three columns, G's adjugate and
characteristic polynomial are written out.  flat imports this module on
its first fit, so a process that samples traces without fitting them
never compiles it.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter, mul

# _largest_root scales the largest root to above 2^(_ROOT_BITS - 3) and
# stops within 3 units of it: a relative error below 2^-53.
_ROOT_BITS = 58


def _integers(floats) -> tuple:
    """(ints, shift): the floats are ints[i] / 2^shift, exactly.

    math.frexp splits every finite float, subnormals included, into m * 2^e
    with m * 2^53 an int, so each such int shifted by e - lo, lo the least
    e, is exact; lo stops at 53, which keeps shift >= 0.
    """
    pairs = list(map(math.frexp, floats))
    lo = min(min(map(itemgetter(1), pairs)), 53)
    return [int(m * 2.0**53) << (e - lo) for m, e in pairs], 53 - lo


def normal_equations(a, b, values) -> tuple:
    """(condition, system): A x ~ values as exact normal equations.

    a and b are A's t^-1 and t^-1/2 columns; its ones column is implied.
    A and values are scaled to ints by one power of two 2^shift, and G =
    A^T A and moments = A^T values are taken in ints; against the ones
    column, whose ints are all 2^shift, a dot product is a shifted sum.
    condition is A's sigma_max / sigma_min, inf for a singular A, and
    system holds what solve reads.
    """
    m = len(values)
    ints, shift = _integers(chain(a, b, values))
    ia, ib, target = ints[:m], ints[m:2 * m], ints[2 * m:]
    aa = sum(map(mul, ia, ia))
    ab = sum(map(mul, ia, ib))
    bb = sum(map(mul, ib, ib))
    ac, bc, cc = sum(ia) << shift, sum(ib) << shift, m << 2 * shift
    moments = [sum(map(mul, ia, target)), sum(map(mul, ib, target)), sum(target) << shift]
    # adj(G) of the symmetric G = [[aa, ab, ac], [ab, bb, bc], [ac, bc, cc]].
    xa, xb, xc = bb * cc - bc * bc, aa * cc - ac * ac, aa * bb - ab * ab
    xab, xac, xbc = ac * bc - ab * cc, ab * bc - ac * bb, ab * ac - aa * bc
    adjugate = [[xa, xab, xac], [xab, xb, xbc], [xac, xbc, xc]]
    det = aa * xa + ab * xab + ac * xac
    # G's characteristic polynomial det(lambda I - G), lowest power first.
    condition = _condition([-det, xa + xb + xc, -(aa + bb + cc), 1])
    return condition, (det, adjugate, moments, a, b, values)


def _largest_root(polynomial) -> tuple:
    """(y, k): y * 2^k lies within 3 * 2^k above the largest root of the cubic.

    polynomial holds [c0, c1, c2, c3], c3 > 0, and every root must be real
    and positive, as for the characteristic polynomial of a positive
    definite G and its reverse.  The sum of the roots, -c2 / c3, is at most
    three times the largest; k puts it near 2^_ROOT_BITS, and q(y) =
    p(2^k y), times a power of two, has int coefficients.  The root of the
    sum of the squared roots, (q2^2 - 2 q1 q3) / q3^2, bounds the largest
    root from above, and stays above it in floats once raised by 2^-40.
    Newton's method runs on ints from that bound, rounded up: above the
    largest root q is increasing and convex, so the exact step q / q' never
    passes the root, and neither does the step rounded down.  The loop
    stops when that rounded step is 0, that is when q / q' < 1, which puts
    y within 3 of the root; the iterates strictly decrease, so it
    terminates.
    """
    c0, c1, c2, c3 = polynomial
    k = (-c2).bit_length() - c3.bit_length() - _ROOT_BITS
    s = 3 * max(-k, 0)  # q_j = c_j 2^(k j), times 2^(-3 k) where k < 0
    q0, q1, q2, q3 = c0 << s, c1 << k + s, c2 << 2 * k + s, c3 << 3 * k + s
    y = math.ceil(math.sqrt((q2 * q2 - 2 * q1 * q3) / (q3 * q3)) * (1.0 + 2.0**-40))
    while True:
        # Horner's rule for q(y) and, in step, q'(y).
        u = q3 * y
        v = u + q2
        w = v * y + q1
        value = w * y + q0
        if value == 0:  # y is the root; q' may vanish there
            return y, k
        step = value // ((u + v) * y + w)
        if step == 0:
            return y, k
        y -= step


def _condition(polynomial) -> float:
    """sigma_max / sigma_min of A, from the characteristic polynomial of G = A^T A.

    It is sqrt(lambda_max(G) lambda_max(G^-1)); the roots of the reversed
    polynomial are the 1 / lambda.  A singular G, det(G) = 0, gives inf,
    as does a condition past the float range.
    """
    c0, c1, c2, c3 = polynomial
    if c0 == 0:
        return math.inf
    y, k = _largest_root(polynomial)
    z, l = _largest_root((-c3, -c2, -c1, -c0))
    e = k + l
    try:
        return math.ldexp(math.sqrt(math.ldexp(float(y * z), e % 2)), e // 2)
    except OverflowError:
        return math.inf


def solve(system) -> tuple:
    """The least-squares x of A x ~ values, and ||A x - values||_2.

    From normal_equations' system: each coefficient is adj(G) A^T values
    / det(G), an exact ratio of ints rounded once.  The residual is summed
    in floats.  Raises ValueError when a coefficient lies past the float
    range.
    """
    det, adjugate, moments, a, b, values = system
    h0, h1, h2 = moments
    try:
        x = [(p * h0 + q * h1 + r * h2) / det for p, q, r in adjugate]
    except OverflowError:
        raise ValueError("a least-squares coefficient exceeds the largest float") from None
    # Each row is ((value - x0 a) - x1 b) - x2, subtracted in doubles.
    x0, x1, x2 = x
    return x, math.hypot(*[((r - x0 * p) - x1 * q) - x2 for r, p, q in zip(values, a, b)])
