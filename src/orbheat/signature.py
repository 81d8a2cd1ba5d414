"""Topological types of closed 2-orbifolds.

A closed 2-orbifold is described up to homeomorphism by a signature: the
number of handles or crosscaps of the underlying surface, the orders of its
cone points, and its mirror boundary components together with the orders of
the corner reflectors on each of them.  This module holds that data model,
the rational Euler characteristic, and the structural predicates
(orientability, good/bad, geometry type) that everything downstream uses.

Euler characteristic bookkeeping: a handle costs 2, a crosscap costs 1, a
mirror boundary component costs 1, a cone point of order m costs (m-1)/m,
and a corner reflector of order n costs (n-1)/(2n); chi is 2 minus the
total.  chi, the spectral constant c and the degree-1 cone/corner sum are
each one exact call of stratum_ratio, the one walk over the strata.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction


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


@dataclass(frozen=True)
class OrbifoldSignature:
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

    handles: int = 0
    crosscaps: int = 0
    cone_points: tuple = ()
    mirror_boundaries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_int(self.handles, "handle count", 0)
        _check_int(self.crosscaps, "crosscap count", 0)
        for m in self.cone_points:
            _check_int(m, "cone point order", 2)
        for component in self.mirror_boundaries:
            for n in component:
                _check_int(n, "corner reflector order", 2)
        handles, crosscaps = self.handles, self.crosscaps
        if handles > 0 and crosscaps > 0:
            crosscaps += 2 * handles
            handles = 0
        object.__setattr__(self, "handles", handles)
        object.__setattr__(self, "crosscaps", crosscaps)
        object.__setattr__(self, "cone_points", tuple(sorted(self.cone_points)))
        object.__setattr__(
            self,
            "mirror_boundaries",
            tuple(sorted(tuple(sorted(c)) for c in self.mirror_boundaries)),
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


def is_orientable(sig: OrbifoldSignature) -> bool:
    """True when the orbifold is orientable: no crosscaps and no mirrors."""
    return sig.crosscaps == 0 and not sig.mirror_boundaries


def is_bad(sig: OrbifoldSignature) -> bool:
    """True for the four families admitting no constant-curvature structure.

    These are the sphere with one cone point, the sphere with two cone
    points of different orders, and their mirror quotients (a disk with one
    corner, or two corners of different orders, and nothing else).
    """
    if sig.handles or sig.crosscaps:
        return False
    cones = sig.cone_points
    mirrors = sig.mirror_boundaries
    if not mirrors:
        if len(cones) == 1:
            return True
        if len(cones) == 2 and cones[0] != cones[1]:
            return True
        return False
    if len(mirrors) == 1 and not cones:
        corners = mirrors[0]
        if len(corners) == 1:
            return True
        if len(corners) == 2 and corners[0] != corners[1]:
            return True
    return False


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
    return {"num": str(q.numerator), "den": str(q.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    """Decode what rational_to_json writes; anything else raises ValueError.

    num must be an ASCII string matching -?[0-9]+ and den one matching
    [0-9]+ with a nonzero value.
    """
    num, den = obj.get("num"), obj.get("den")
    if not (
        isinstance(num, str)
        and isinstance(den, str)
        and re.fullmatch("-?[0-9]+", num)
        and re.fullmatch("[0-9]+", den)
        and int(den) != 0
    ):
        raise ValueError(f"malformed rational object: {obj!r}")
    return Fraction(int(num), int(den))


def signature_to_json(sig: OrbifoldSignature) -> dict:
    return {
        "handles": sig.handles,
        "crosscaps": sig.crosscaps,
        "cone_points": list(sig.cone_points),
        "mirror_boundaries": [list(c) for c in sig.mirror_boundaries],
    }


def signature_from_json(obj: dict) -> OrbifoldSignature:
    # The values go through unconverted, so OrbifoldSignature's own checks
    # reject a float, bool or string count or order.
    try:
        return OrbifoldSignature(
            handles=obj.get("handles", 0),
            crosscaps=obj.get("crosscaps", 0),
            cone_points=tuple(obj.get("cone_points", ())),
            mirror_boundaries=tuple(tuple(c) for c in obj.get("mirror_boundaries", ())),
        )
    except (TypeError, AttributeError) as exc:
        raise SignatureError(f"malformed signature object: {exc}") from exc
