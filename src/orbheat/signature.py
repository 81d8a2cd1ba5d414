"""Topological types of closed 2-orbifolds.

A closed 2-orbifold is described up to homeomorphism by a signature: the
number of handles or crosscaps of the underlying surface, the orders of its
cone points, and its mirror boundary components together with the orders of
the corner reflectors on each of them.  This module holds that data model,
the rational Euler characteristic, and the structural predicates
(good/bad, geometry type) that everything downstream uses.

Euler characteristic bookkeeping: a handle costs 2, a crosscap costs 1, a
mirror boundary component costs 1, a cone point of order m costs (m-1)/m,
and a corner reflector of order n costs (n-1)/(2n); chi is 2 minus the
total.  chi, the spectral constant c and the degree-1 cone/corner sum are
each one exact call of stratum_ratio, the one walk over the strata, with
its weight beside it.  All three are topological, and so is the degree-0
heat coefficient c/12 (degree_zero_term); heat holds the metric.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from ._record import Record


class SignatureError(ValueError):
    """Raised when signature data is structurally invalid."""


class GeometryType(Enum):
    SPHERICAL = "Spherical"
    EUCLIDEAN = "Euclidean"
    HYPERBOLIC = "Hyperbolic"
    BAD_POSITIVE = "BadPositive"


def _check_int(value, what, minimum):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SignatureError(f"{what} must be an int, got {value!r}")
    if value < minimum:
        raise SignatureError(f"{what} must be >= {minimum}, got {value}")


class OrbifoldSignature(Record):
    """Normalized signature of a closed 2-orbifold.

    handles            number of handles of the underlying surface
    crosscaps          number of crosscaps (nonzero only for the
                       non-orientable underlying surfaces)
    cone_points        orders of the interior cone points, each >= 2
    mirror_boundaries  one tuple of corner-reflector orders per mirror
                       boundary component (a boundary with no corners is
                       the empty tuple)

    Construction normalizes: cone orders are sorted ascending, each corner
    list is sorted ascending, the boundary components are sorted
    lexicographically, and a surface with both handles and crosscaps is
    rewritten using crosscaps only (one handle trades for two crosscaps in
    the presence of at least one crosscap, which preserves the surface and
    hence every invariant computed here).
    """

    __slots__ = ("handles", "crosscaps", "cone_points", "mirror_boundaries")

    def __init__(
        self,
        handles: int = 0,
        crosscaps: int = 0,
        cone_points: tuple = (),
        mirror_boundaries: tuple = (),
    ):
        _check_int(handles, "handle count", 0)
        _check_int(crosscaps, "crosscap count", 0)
        for m in cone_points:
            _check_int(m, "cone point order", 2)
        for component in mirror_boundaries:
            for n in component:
                _check_int(n, "corner reflector order", 2)
        if handles > 0 and crosscaps > 0:
            crosscaps += 2 * handles
            handles = 0
        object.__setattr__(self, "handles", handles)
        object.__setattr__(self, "crosscaps", crosscaps)
        object.__setattr__(self, "cone_points", tuple(sorted(cone_points)))
        object.__setattr__(
            self,
            "mirror_boundaries",
            tuple(sorted(tuple(sorted(c)) for c in mirror_boundaries)),
        )

    @property
    def corner_orders(self) -> tuple:
        """All corner-reflector orders, flattened across boundary components."""
        return tuple(n for component in self.mirror_boundaries for n in component)

    @property
    def has_mirrors(self) -> bool:
        return bool(self.mirror_boundaries)


def stratum_ratio(base: int, cones, boundaries, weight) -> tuple:
    """The reduced (num, den) int pair of base + sum weight(m)/m + sum weight(n)/(2n).

    m runs over cones, n over the corner orders in boundaries (one sequence
    per boundary); weight maps an order to an int.  den is positive.
    """
    num, den = base, 1
    for m in cones:
        num = num * m + weight(m) * den
        den *= m
    for corners in boundaries:
        for n in corners:
            num = num * 2 * n + weight(n) * den
            den *= 2 * n
    g = math.gcd(num, den)
    return num // g, den // g


def _chi_weight(m: int) -> int:
    return 1 - m


def euler_characteristic(sig: OrbifoldSignature) -> Fraction:
    """Exact orbifold Euler characteristic."""
    base = 2 - 2 * sig.handles - sig.crosscaps - len(sig.mirror_boundaries)
    return Fraction(*stratum_ratio(base, sig.cone_points, sig.mirror_boundaries, _chi_weight))


def _c_weight(m: int) -> int:
    return (m - 1) ** 2


def c_ratio(handles: int, crosscaps: int, cones, boundaries) -> tuple:
    """The spectral constant c as a reduced (numerator, denominator) int pair.

    c = 4 - 4 handles - 2 crosscaps - 2 boundaries
        + sum_cones (m-1)^2/m + sum_corners (n-1)^2/(2n),

    which is 12 * (chi/6 + sum (m^2-1)/(12m) + sum (n^2-1)/(24n)) with chi
    expanded.  cones is a sequence of cone orders and boundaries a sequence
    of corner-order sequences, all >= 2.  Trading one handle for two
    crosscaps leaves c unchanged, so the counts need not be normalized.
    The denominator is positive.
    """
    base = 4 - 4 * handles - 2 * crosscaps - 2 * len(boundaries)
    return stratum_ratio(base, cones, boundaries, _c_weight)


def spectral_c(sig: OrbifoldSignature) -> Fraction:
    """The integer-normalized spectral constant c = 12 * degree-0 coefficient."""
    return Fraction(*c_ratio(sig.handles, sig.crosscaps, sig.cone_points, sig.mirror_boundaries))


def degree_zero_term(sig: OrbifoldSignature) -> Fraction:
    """Exact degree-0 heat coefficient c/12; purely topological."""
    return spectral_c(sig) / 12


def _degree_one_weight(m: int) -> int:
    return m**4 + 10 * m * m - 11


def _singular_degree_one_sum(sig: OrbifoldSignature) -> Fraction:
    ratio = stratum_ratio(0, sig.cone_points, sig.mirror_boundaries, _degree_one_weight)
    return Fraction(*ratio) / 360


def is_bad(sig: OrbifoldSignature) -> bool:
    """True for the four families admitting no constant-curvature structure.

    These are the sphere with one cone point, the sphere with two cone
    points of different orders, and their mirror quotients (a disk with one
    corner, or two corners of different orders, and nothing else).  So
    with no handles or crosscaps, the orders are a sphere's cone orders or
    the corner orders of a disk with no cones, and it is bad exactly when
    there is one, or two unequal ones.
    """
    if sig.handles or sig.crosscaps:
        return False
    if not sig.mirror_boundaries:
        orders = sig.cone_points
    elif len(sig.mirror_boundaries) == 1 and not sig.cone_points:
        orders = sig.mirror_boundaries[0]
    else:
        return False
    return len(orders) == 1 or (len(orders) == 2 and orders[0] != orders[1])


def geometry_type(sig: OrbifoldSignature) -> GeometryType:
    """Geometry carried by the orbifold, decided by the sign of chi.

    Bad orbifolds (which all have chi > 0 but no spherical structure) are
    reported as BAD_POSITIVE; otherwise chi > 0, = 0, < 0 map to spherical,
    Euclidean and hyperbolic respectively.
    """
    if is_bad(sig):
        return GeometryType.BAD_POSITIVE
    chi = euler_characteristic(sig)
    if chi > 0:
        return GeometryType.SPHERICAL
    if chi == 0:
        return GeometryType.EUCLIDEAN
    return GeometryType.HYPERBOLIC


def rational_to_json(value: Fraction) -> dict:
    """Encode an exact rational as {"num": str, "den": str}.

    Strings, not ints: numerators in downstream invariants can exceed the
    integer range of other JSON consumers.
    """
    q = Fraction(value)
    return {"num": _decimal(q.numerator), "den": _decimal(q.denominator)}


def _decimal(n: int) -> str:
    """The decimal digits of n, also past Python's int-to-string digit limit."""
    try:
        return str(n)
    except ValueError:  # more digits than str() converts; decimal has no limit
        from decimal import Decimal

        return str(Decimal(n))


def _text(value) -> str:
    """str(value), also for an exact rational past Python's int-to-string digit limit."""
    if not isinstance(value, Fraction):
        return str(value)
    q = rational_to_json(value)
    return q["num"] if q["den"] == "1" else f"{q['num']}/{q['den']}"


def signature_to_json(sig: OrbifoldSignature) -> dict:
    return {
        "handles": sig.handles,
        "crosscaps": sig.crosscaps,
        "cone_points": list(sig.cone_points),
        "mirror_boundaries": [list(c) for c in sig.mirror_boundaries],
    }
