"""Distinguishing 2-orbifolds by their heat invariants.

Tools built on the exact spectral constant c = 12 * (degree-0 heat
coefficient):

  * enumerating named classes of orbifolds up to an order bound,
  * inverting c over a class and scanning a class for c-collisions,
  * separating negative-curvature triangular pillows from the
    nonnegative-curvature ones by integer/fractional-part matching of c,
  * recovering the sign of a constant curvature from an expansion,
  * comparing mirror-locus lengths of the spherical families on the unit
    sphere, where c alone cannot tell a quotient from its orientation
    double cover's other quotients.

Everything that feeds a classification decision is exact rational
arithmetic; floats appear only in the returned mirror lengths (multiples
of pi) and in curvature_sign's float inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .heat import HeatExpansion, c_ratio, spectral_c
from .notation import render
from .signature import OrbifoldSignature, euler_characteristic


class UnsupportedFamily(ValueError):
    """Signature outside the families covered by the built-in length table."""


class AmbiguousZero(ArithmeticError):
    """Both curvature-sign tests vanished; the sign is not determined."""


class ClassKind(Enum):
    TEARDROPS_AND_FOOTBALLS = "teardrops-footballs"
    TRIANGULAR_PILLOWS = "pillows"
    CLASS_C_ORIENTABLE = "class-c"
    SPHERICAL_CONSTANT_CURVATURE = "spherical"


@dataclass(frozen=True)
class OrbifoldClass:
    """A named enumerable class together with its order bound."""

    kind: ClassKind
    bound: int = 500

    def __post_init__(self):
        if not isinstance(self.bound, int) or isinstance(self.bound, bool):
            raise ValueError(f"bound must be an int, got {self.bound!r}")
        if self.bound < 2:
            raise ValueError(f"bound must be >= 2, got {self.bound}")


class Verdict(Enum):
    BY_C = "ByC"
    BY_MIRROR_PRESENCE = "ByMirrorPresence"
    BY_MIRROR_LENGTH = "ByMirrorLength"
    NOT_DISTINGUISHED = "NotDistinguished"


class CurvatureSign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


def _sphere(*cones) -> OrbifoldSignature:
    return OrbifoldSignature(cone_points=tuple(cones))


# Class rosters stream their members as (handles, crosscaps, cones,
# boundaries) tuples, already in normalized form, so the scans below can key
# on c_ratio and build an OrbifoldSignature only for the members they return.


def _teardrops_footballs(bound: int):
    for m in range(2, bound + 1):
        yield 0, 0, (m,), ()
    for r in range(2, bound + 1):
        for s in range(r, bound + 1):
            yield 0, 0, (r, s), ()


def _nonneg_pillows(bound: int):
    """Triangular pillows with chi >= 0 and orders <= bound, no duplicates.

    chi >= 0 forces 1/p + 1/q + 1/r >= 1, so p is 2 or 3 and the other
    orders are tightly bounded except for the (2, 2, r) tail.
    """
    for r in range(2, bound + 1):
        yield 0, 0, (2, 2, r), ()
    for q, rmax in ((3, 6), (4, 4)):
        for r in range(q, min(rmax, bound) + 1):
            yield 0, 0, (2, q, r), ()
    if bound >= 3:
        yield 0, 0, (3, 3, 3), ()


# The seven one-order spherical families, in their roster order for each m.
_SPHERICAL_FAMILIES = (
    lambda m: (0, 0, (m, m), ()),
    lambda m: (0, 0, (2, 2, m), ()),
    lambda m: (0, 0, (), ((m, m),)),
    lambda m: (0, 1, (m,), ()),
    lambda m: (0, 0, (m,), ((),)),
    lambda m: (0, 0, (), ((2, 2, m),)),
    lambda m: (0, 0, (2,), ((m,),)),
)

_SPHERICAL_FIXED = (
    ((2, 3, 3), ()),
    ((2, 3, 4), ()),
    ((2, 3, 5), ()),
    ((), ((2, 3, 3),)),
    ((3,), ((2,),)),
    ((), ((2, 3, 4),)),
    ((), ((2, 3, 5),)),
)


def _spherical_fixed(bound: int):
    for cones, boundaries in _SPHERICAL_FIXED:
        if max((*cones, *(n for c in boundaries for n in c))) <= bound:
            yield 0, 0, cones, boundaries


def _roster(cls: OrbifoldClass):
    """Every member of the class as a (handles, crosscaps, cones, boundaries) tuple."""
    B = cls.bound
    kind = cls.kind
    if kind is ClassKind.TEARDROPS_AND_FOOTBALLS:
        yield from _teardrops_footballs(B)
    elif kind is ClassKind.TRIANGULAR_PILLOWS:
        for p in range(2, B + 1):
            for q in range(p, B + 1):
                for r in range(q, B + 1):
                    yield 0, 0, (p, q, r), ()
    elif kind is ClassKind.CLASS_C_ORIENTABLE:
        yield 0, 0, (), ()
        yield 1, 0, (), ()
        yield from _teardrops_footballs(B)
        yield from _nonneg_pillows(B)
        yield 0, 0, (2, 2, 2, 2), ()
    elif kind is ClassKind.SPHERICAL_CONSTANT_CURVATURE:
        for m in range(2, B + 1):
            for family in _SPHERICAL_FAMILIES:
                yield family(m)
        yield from _spherical_fixed(B)
    else:
        raise ValueError(f"unknown class kind {kind!r}")


def enumerate_class(cls: OrbifoldClass) -> tuple:
    """Complete duplicate-free roster of the class with orders <= cls.bound."""
    return tuple(OrbifoldSignature(*member) for member in _roster(cls))


def roster_size(cls: OrbifoldClass, limit: int | None = None) -> int:
    """Number of members of the class, counted without building signatures.

    With a limit, counting stops after limit + 1 members, so a result above
    limit only says the roster is larger than limit.
    """
    stop = None if limit is None else limit + 1
    return sum(1 for _ in itertools.islice(_roster(cls), stop))


def _teardrop(m: int) -> tuple:
    return 0, 0, (m,), ()


def _one_order(family, c: Fraction, bound: int | None):
    """The only order m in [2, bound] at which family(m) can have c, or None.

    Every stratum adds (n-1)^2/n or half of it to c, and
    (m-1)^2/m = m - 2 + 1/m, so a one-order family has c = a + b (m - 2 + 1/m)
    with b > 0.  As 1/m lies in (0, 1/2], m = floor((c - a) / b) + 2.  At
    m = 2 and 3, m - 2 + 1/m is 1/2 and 4/3, so c_ratio there gives
    b = 6/5 (c(3) - c(2)) and a = c(2) - b/2.
    """
    c2, c3 = (Fraction(*c_ratio(*family(m))) for m in (2, 3))
    b = (c3 - c2) * Fraction(6, 5)
    m = math.floor((c - c2 + b / 2) / b) + 2
    return m if 2 <= m and (bound is None or m <= bound) else None


def _order_pair(total: int, num: int, den: int):
    """The integers q <= r with q + r = total and 1/q + 1/r = num/den > 0, or None.

    q and r are the roots of x^2 - total x + total den / num.
    """
    prod, rem = divmod(total * den, num)
    disc = total * total - 4 * prod
    if rem or disc < 0:
        return None
    root = math.isqrt(disc)
    if root * root != disc or (total - root) % 2:
        return None
    return (total - root) // 2, (total + root) // 2


def _teardrop_football_candidates(c: Fraction, bound: int):
    m = _one_order(_teardrop, c, bound)
    if m is not None:
        yield _teardrop(m)
    # A football O(r, s) has c = r + s + h with h = 1/r + 1/s in (0, 1], so
    # h is the fractional part of c, or 1 when c is an integer.
    h = c - math.floor(c) or Fraction(1)
    pair = _order_pair(int(c - h), h.numerator, h.denominator)
    if pair is not None and 2 <= pair[0] and pair[1] <= bound:
        yield 0, 0, pair, ()


# Largest number of first orders the pillow search tries for one h.  The
# range (1/h, min(3/h, S/3)] grows with the denominator of c, so an uncapped
# c would run for days; at this cap a search takes under a second.
PILLOW_ORDER_LIMIT = 1_000_000


def _pillow_orders(c: Fraction, bound: int | None = None, hyperbolic: bool = True):
    """Every (p, q, r), p <= q <= r <= bound, with c(O(p, q, r)) = c, in lexicographic order.

    A pillow has c = S - 2 + h with S = p+q+r and h = 1/p+1/q+1/r in
    (0, 3/2], so h is frac(c) (chi < 0) or frac(c) + 1 (chi >= 0) and S
    follows.  For each first order p in (1/h, min(3/h, S/3, bound)], q and
    r are the integer roots of x^2 - (S-p) x + (S-p)/(h-1/p), one triple at
    most per p and h.  bound=None searches every order; hyperbolic=False
    skips the chi < 0 side.  Raises ValueError, before searching, when more
    than PILLOW_ORDER_LIMIT first orders would need trying for one h.
    """
    floor = math.floor(c)
    frac = c - floor
    sides = []
    # The chi >= 0 side comes first.  h > 1 leaves only p = 2, and beside it
    # the chi < 0 side has h = frac(c) <= 1/2, so p > 1/h >= 2 there.
    for h, total in ((frac + 1, floor + 1), (frac, floor + 2)):
        if not 0 < h <= Fraction(3, 2) or (h < 1 and not hyperbolic):
            continue
        first = max(2, h.denominator // h.numerator + 1)
        last = min(3 * h.denominator // h.numerator, total // 3)
        if bound is not None:
            last = min(last, bound)
        if last - first + 1 > PILLOW_ORDER_LIMIT:
            raise ValueError(
                f"c = {c} needs {last - first + 1} first orders tried, "
                f"more than the limit of {PILLOW_ORDER_LIMIT}"
            )
        sides.append((h.numerator, h.denominator, total, first, last))
    for hn, hd, total, first, last in sides:
        for p in range(first, last + 1):
            # q + r = total - p and 1/q + 1/r = h - 1/p = (hn p - hd) / (hd p)
            pair = _order_pair(total - p, hn * p - hd, hd * p)
            # a q below p belongs to the triple found at first order q
            if pair is not None and pair[0] >= p and (bound is None or pair[1] <= bound):
                yield (p, *pair)


def _preimage_candidates(cls: OrbifoldClass, c: Fraction):
    """The members of the class that can have c, in roster order, without the roster."""
    B = cls.bound
    kind = cls.kind
    if kind is ClassKind.TEARDROPS_AND_FOOTBALLS:
        yield from _teardrop_football_candidates(c, B)
    elif kind is ClassKind.CLASS_C_ORIENTABLE:
        yield 0, 0, (), ()
        yield 1, 0, (), ()
        yield from _teardrop_football_candidates(c, B)
        for orders in _pillow_orders(c, B, hyperbolic=False):
            yield 0, 0, orders, ()
        yield 0, 0, (2, 2, 2, 2), ()
    elif kind is ClassKind.TRIANGULAR_PILLOWS:
        for orders in _pillow_orders(c, B):
            yield 0, 0, orders, ()
    elif kind is ClassKind.SPHERICAL_CONSTANT_CURVATURE:
        found = []
        for i, family in enumerate(_SPHERICAL_FAMILIES):
            m = _one_order(family, c, B)
            if m is not None:
                found.append((m, i))
        for m, i in sorted(found):  # the roster's order: by m, then by family
            yield _SPHERICAL_FAMILIES[i](m)
        yield from _spherical_fixed(B)
    else:
        raise ValueError(f"unknown class kind {kind!r}")


def c_preimage(cls: OrbifoldClass, c_value) -> tuple:
    """All class members whose spectral constant equals c_value exactly, in roster order.

    An exact search that never walks the roster.  Each family's c is a closed
    form in its free orders: one-order families (teardrops, the spherical
    families) have one candidate order, a football's two orders are the
    roots of one integer quadratic, and the pillows try each first order p
    in (1/h, min(3/h, S/3, bound)] and solve a quadratic for the other two
    (see _pillow_orders).  So the cost is O(1) per family plus at most
    min(2/h, bound) first orders for pillows, against one c evaluation per
    member for a roster walk.  Every candidate is confirmed with c_ratio.
    Raises ValueError when the pillow search would exceed
    PILLOW_ORDER_LIMIT first orders.
    """
    c = Fraction(c_value)
    key = (c.numerator, c.denominator)
    return tuple(
        OrbifoldSignature(*member)
        for member in _preimage_candidates(cls, c)
        if c_ratio(*member) == key
    )


@dataclass(frozen=True)
class CollisionPair:
    sig_a: OrbifoldSignature
    sig_b: OrbifoldSignature
    c: Fraction

    def to_json(self) -> dict:
        from .signature import rational_to_json

        return {
            "sig_a": render(self.sig_a),
            "sig_b": render(self.sig_b),
            "c": rational_to_json(self.c),
        }


def collision_groups(cls: OrbifoldClass) -> dict:
    """Members grouped by spectral constant, keeping only groups of size >= 2."""
    # One list per distinct c would be one tracked object per member for
    # the garbage collector to rescan; lists are made only for collisions.
    first = {}  # c_ratio -> the first member with that c
    shared = {}  # c_ratio -> all members with that c, once there are two
    for member in _roster(cls):
        key = c_ratio(*member)
        seen = first.get(key)
        if seen is None:
            first[key] = member
        else:
            shared.setdefault(key, [seen]).append(member)
    return {
        Fraction(*key): tuple(OrbifoldSignature(*m) for m in shared[key])
        for key in first
        if key in shared
    }


def injectivity_scan(cls: OrbifoldClass) -> tuple:
    """All unordered member pairs with equal c; empty means c is injective.

    The enumeration bound makes this a confirmation over the finite
    roster, not a proof for all orders.
    """
    pairs = []
    for c, sigs in sorted(collision_groups(cls).items()):
        for i in range(len(sigs)):
            for j in range(i + 1, len(sigs)):
                pairs.append(CollisionPair(sigs[i], sigs[j], c))
    return tuple(pairs)


@dataclass(frozen=True)
class PillowSeparation:
    """Outcome of the negative-pillow vs nonnegative-class c comparison."""

    distinguished: bool
    negative_member: OrbifoldSignature | None = None
    positive_member: OrbifoldSignature | None = None


def pillow_negative_vs_rest(c_value) -> PillowSeparation:
    """Can c_value be attained both by a chi<0 pillow and by the chi>0 side?

    The chi>0 side is the teardrops plus the chi>0 triangular pillows.  The
    pillows come from the exact, unbounded search of _pillow_orders, and
    the lexicographically first pillow of each sign wins, as in the roster.
    A pillow with p + q + r > c + 1 has h < 1, so chi < 0; one with
    p + q + r < c + 1 has chi > 0.  A teardrop O(m) has c = m + 2 + 1/m,
    so it has one candidate order.  Raises ValueError when more than
    PILLOW_ORDER_LIMIT first orders would need trying.
    """
    c = Fraction(c_value)
    negative = positive = None
    for orders in _pillow_orders(c):
        side = sum(orders) - c - 1
        if side > 0 and negative is None:
            negative = _sphere(*orders)
        elif side < 0 and positive is None:
            positive = _sphere(*orders)
        if negative is not None and positive is not None:
            break
    if positive is None:
        m = _one_order(_teardrop, c, None)
        if m is not None and c_ratio(*_teardrop(m)) == (c.numerator, c.denominator):
            positive = _sphere(m)
    return PillowSeparation(negative is None or positive is None, negative, positive)


def curvature_sign(expansion: HeatExpansion, abs_K, sig: OrbifoldSignature) -> CurvatureSign:
    """Recover the sign of the constant curvature +-abs_K from an expansion.

    The degree -1 coefficient recovers the area; subtracting the smooth
    degree-1 part abs_K^2 * area / (60 pi) leaves K times a positive
    combination of cone/corner sums, whose sign is the answer whenever
    singular points exist.  For smooth signatures that remainder is
    identically zero and the (exact) degree-0 coefficient chi/6 decides.
    Raises AmbiguousZero when both tests vanish.
    """
    a = float(abs_K)
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"abs_K must be finite and > 0, got {abs_K!r}")
    deg_m1 = expansion.as_float(-1)
    deg_1 = expansion.as_float(1)
    smooth_part = a * a * deg_m1 / 15.0
    remainder = deg_1 - smooth_part
    scale = max(1.0, abs(deg_1), abs(smooth_part))
    if abs(remainder) > 1e-9 * scale:
        return CurvatureSign.POSITIVE if remainder > 0 else CurvatureSign.NEGATIVE
    if not sig.cone_points and not sig.corner_orders:
        deg_0 = expansion.degree_zero
        if deg_0 > 0:
            return CurvatureSign.POSITIVE
        if deg_0 < 0:
            return CurvatureSign.NEGATIVE
    raise AmbiguousZero(
        "degree-1 remainder and smooth degree-0 test both vanish; "
        "cannot recover the curvature sign"
    )


# Number of reflection great circles on the unit sphere for each supported
# mirrored spherical family, derived by orbit counting and validated against
# the spherical-triangle-perimeter oracle in the tests.
def _reflection_circles(sig: OrbifoldSignature):
    if sig.handles or sig.crosscaps or len(sig.mirror_boundaries) != 1:
        return None
    cones = sig.cone_points
    corners = sig.mirror_boundaries[0]
    if not cones:
        if len(corners) == 2 and corners[0] == corners[1]:
            return corners[0]  # (*m,m)
        if len(corners) == 3 and corners[:2] == (2, 2):
            return corners[2] + 1  # (*2,2,m)
        if corners == (2, 3, 3):
            return 6  # (*2,3,3)
        return None
    if len(cones) == 1 and not corners:
        return 1  # (m*)
    if cones == (2,) and len(corners) == 1:
        return corners[0]  # (2,*m)
    if cones == (3,) and corners == (2,):
        return 3  # (3,*2)
    return None


def _unit_length_over_pi(sig: OrbifoldSignature) -> Fraction:
    k = _reflection_circles(sig)
    if k is None:
        raise UnsupportedFamily(
            f"no mirror-length table entry for signature {render(sig) or 'sphere'!r}"
        )
    # Total mirror length is 4 pi k / |Gamma| with |Gamma| = 2 / chi: each of
    # the k great circles (length 2 pi, total 2 pi k) is folded by the index-2
    # generic mirror-point stabilizer, leaving 2 pi k * (2 / |Gamma|) / 2.
    return 2 * Fraction(k) * euler_characteristic(sig)


def unit_sphere_mirror_length(sig: OrbifoldSignature) -> float:
    """Mirror-locus length of the K = 1 structure on a supported family.

    Supported: (*m,m), (m*), (*2,2,m), (2,*m), (*2,3,3) and (3,*2); other
    signatures raise UnsupportedFamily.
    """
    return float(_unit_length_over_pi(sig)) * math.pi


def spherical_distinguish(a: OrbifoldSignature, b: OrbifoldSignature) -> Verdict:
    """How the spectrum separates two spherical constant-curvature orbifolds.

    ByC when the exact spectral constants differ; otherwise
    ByMirrorPresence when exactly one has a mirror locus (the degree -1/2
    term); otherwise ByMirrorLength when the unit-sphere mirror lengths
    differ.  NotDistinguished only for identical signatures.
    """
    if spectral_c(a) != spectral_c(b):
        return Verdict.BY_C
    if a.has_mirrors != b.has_mirrors:
        return Verdict.BY_MIRROR_PRESENCE
    if a.has_mirrors and b.has_mirrors:
        if _unit_length_over_pi(a) != _unit_length_over_pi(b):
            return Verdict.BY_MIRROR_LENGTH
    return Verdict.NOT_DISTINGUISHED


def positive_vs_zero_chi(a: OrbifoldSignature, b: OrbifoldSignature) -> Verdict:
    """Does the spectrum separate chi > 0 from chi = 0 for this pair?

    Both signatures must have chi >= 0.  The exact constant c decides
    except for the handful of cross-sign c-collisions, all of which pit a
    mirrorless orbifold against a mirrored one and fall to the degree -1/2
    test.
    """
    for sig in (a, b):
        if euler_characteristic(sig) < 0:
            raise ValueError(
                f"signature {render(sig) or 'sphere'!r} has chi < 0; "
                "this comparison covers chi >= 0 only"
            )
    if spectral_c(a) != spectral_c(b):
        return Verdict.BY_C
    if a.has_mirrors != b.has_mirrors:
        return Verdict.BY_MIRROR_PRESENCE
    return Verdict.NOT_DISTINGUISHED
