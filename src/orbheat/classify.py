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
of pi) and as curvature_sign's inputs, which it converts exactly, so it
recovers the sign at any scale of K.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from ._record import Record
from .notation import render
from .signature import (
    GeometryType,
    OrbifoldSignature,
    c_ratio,
    euler_characteristic,
    geometry_type,
    is_bad,
    rational_to_json,
    spectral_c,
)


class UnsupportedFamily(ValueError):
    """Signature with no mirror length on the unit sphere: no mirror, bad, or chi <= 0."""


class AmbiguousZero(ArithmeticError):
    """Both curvature-sign tests vanished; the sign is not determined."""


class ClassKind(Enum):
    TEARDROPS_AND_FOOTBALLS = "teardrops-footballs"
    TRIANGULAR_PILLOWS = "pillows"
    CLASS_C_ORIENTABLE = "class-c"
    SPHERICAL_CONSTANT_CURVATURE = "spherical"


class OrbifoldClass(Record):
    """A named enumerable class together with its order bound."""

    __slots__ = ("kind", "bound")

    def __init__(self, kind: ClassKind, bound: int):
        if not isinstance(kind, ClassKind):
            raise ValueError(f"kind must be a ClassKind, got {kind!r}")
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise ValueError(f"bound must be an int, got {bound!r}")
        if bound < 2:
            raise ValueError(f"bound must be >= 2, got {bound}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bound", bound)


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


# Class rosters are streams of stems (handles, crosscaps, cones, boundaries,
# last), already in normalized form.  A stem stands for the members with one
# more cone of order r, r in the range last, in that order.  A cone point of
# order 1 is an ordinary point, so a fixed member is its own stem with last
# range(1, 2).  The scans below key each stem once and build an
# OrbifoldSignature only for the members they return.


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


def _family_line(family) -> tuple:
    """(a, b) with c(family(m)) = a + b (m - 1)^2/m at every order m.

    Every stratum adds (n - 1)^2/n or half of it to c, so a one-order
    family's c is a + b (m - 1)^2/m with b > 0.  At m = 2 and 3,
    (m - 1)^2/m is 1/2 and 4/3, so c_ratio there gives
    b = 6/5 (c(3) - c(2)) and a = c(2) - b/2.
    """
    c2, c3 = (Fraction(*c_ratio(*family(m))) for m in (2, 3))
    b = (c3 - c2) * Fraction(6, 5)
    return c2 - b / 2, b


_FAMILY_LINES = tuple(_family_line(family) for family in _SPHERICAL_FAMILIES)


def _member(h: int, k: int, cones: tuple, boundaries: tuple) -> tuple:
    """A fixed member as (its largest order, member), to compare with a class bound."""
    return max(cones + sum(boundaries, ()), default=0), (h, k, cones, boundaries)


# Each class once, read by both the roster and c-inversion: whether its
# spheres with cone points may have chi < 0, and the parts of its roster in
# order.  A part is a fixed member from _member, in the class when its
# largest order is <= the bound; an int k, the spheres with k cone points;
# or _SPHERICAL_FAMILIES, whose members come by m, then by family.
_CLASSES = {
    ClassKind.TEARDROPS_AND_FOOTBALLS: (True, (1, 2)),
    ClassKind.TRIANGULAR_PILLOWS: (True, (3,)),
    ClassKind.CLASS_C_ORIENTABLE: (
        False,
        (_member(0, 0, (), ()), _member(1, 0, (), ()), 1, 2, 3, _member(0, 0, (2, 2, 2, 2), ())),
    ),
    ClassKind.SPHERICAL_CONSTANT_CURVATURE: (
        True,
        (
            _SPHERICAL_FAMILIES,
            _member(0, 0, (2, 3, 3), ()),
            _member(0, 0, (2, 3, 4), ()),
            _member(0, 0, (2, 3, 5), ()),
            _member(0, 0, (), ((2, 3, 3),)),
            _member(0, 0, (3,), ((2,),)),
            _member(0, 0, (), ((2, 3, 4),)),
            _member(0, 0, (), ((2, 3, 5),)),
        ),
    ),
}


def _sphere_stems(k: int, bound: int, hyperbolic: bool):
    """Stems of the spheres with k = 1, 2 or 3 cone points of orders <= bound, in order.

    hyperbolic=False keeps those with chi = 2 - k + sum 1/n_i >= 0, which
    every sphere with k <= 2 has.  For three orders p <= q <= r it reads
    r (pq - p - q) <= pq, and r >= q then leaves p and q at most 4.
    """
    if k == 1:
        yield 0, 0, (), (), range(2, bound + 1)
    elif k == 2:
        for p in range(2, bound + 1):
            yield 0, 0, (p,), (), range(p, bound + 1)
    else:
        cap = bound if hyperbolic else min(bound, 4)
        for p in range(2, cap + 1):
            for q in range(p, cap + 1):
                pq = p * q
                top = bound if hyperbolic or pq == p + q else min(bound, pq // (pq - p - q))
                if q <= top:
                    yield 0, 0, (p, q), (), range(q, top + 1)


def _stems(cls: OrbifoldClass):
    """The class roster as (handles, crosscaps, cones, boundaries, last) stems."""
    B = cls.bound
    hyperbolic, parts = _CLASSES[cls.kind]
    for part in parts:
        if isinstance(part, int):
            yield from _sphere_stems(part, B, hyperbolic)
        elif part is _SPHERICAL_FAMILIES:
            for m in range(2, B + 1):
                for family in part:
                    yield (*family(m), range(1, 2))
        elif part[0] <= B:
            yield (*part[1], range(1, 2))


def _grown(h: int, k: int, cones: tuple, boundaries: tuple, r: int) -> tuple:
    """A stem's member with one more cone of order r, where order 1 adds no cone."""
    return h, k, cones if r == 1 else (*cones, r), boundaries


def _roster(cls: OrbifoldClass):
    """Every member of the class as a (handles, crosscaps, cones, boundaries) tuple."""
    for h, k, cones, boundaries, last in _stems(cls):
        for r in last:
            yield _grown(h, k, cones, boundaries, r)


def enumerate_class(cls: OrbifoldClass) -> tuple:
    """Complete duplicate-free roster of the class with orders <= cls.bound.

    Raises roster_size's ValueError, before building any member, when the
    class has more than SCAN_MEMBER_LIMIT members.
    """
    roster_size(cls)
    return tuple(OrbifoldSignature(*member) for member in _roster(cls))


# Largest roster that roster_size accepts.  roster_size alone checks it, and
# enumerate_class and collision_groups (and so injectivity_scan and `orbheat
# scan`) call roster_size before any roster work.  The bucket sweep holds
# the stems and two buckets of keys, not the members, but a scan's time and
# memory also grow with the members it reports.  Near the limit, in fresh `orbheat scan`
# processes on a 2-core Intel Xeon with Python 3.11.7: pillows@180,
# teardrops-footballs@1400 and class-c@1400 take 0.3-0.4 s and peak at
# 17-20 MB RSS; spherical@140000 (980,000 members, 699,998 of them in
# collision groups, 559,999 pairs) takes 20 s and 530 MB as text, 24 s
# and 1.3 GB as JSON, of which collision_groups takes 13 s.
SCAN_MEMBER_LIMIT = 1_000_000
# Largest number of first orders the three-cone search tries for one h.  The
# range (1/h, min(3/h, S/3)] grows with the denominator of c, so an uncapped
# c would run for days; at this cap a search takes under a second.
# flat.MULTIPLICITY_SHELL_LIMIT caps the flat-model multiplicity oracle the
# same way; these three limits are fixed, not options.
PILLOW_ORDER_LIMIT = 1_000_000


def roster_size(cls: OrbifoldClass) -> int:
    """Number of members of the class, counted from its stems.

    Raises ValueError, as soon as the count passes it, when the class has
    more than SCAN_MEMBER_LIMIT members.
    """
    count = 0
    for *_, last in _stems(cls):
        count += len(last)
        if count > SCAN_MEMBER_LIMIT:
            raise ValueError(
                f"class {cls.kind.value} at bound {cls.bound} has more than "
                f"{SCAN_MEMBER_LIMIT} members; scan stops at that limit"
            )
    return count


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


def _cone_orders(c: Fraction, k: int, bound: int | None = None, hyperbolic: bool = True):
    """Every n_1 <= ... <= n_k <= bound with c(sphere with cones n_i) = c, in lexicographic order.

    k is 1, 2 or 3.  Such a sphere has c = 4 - 2k + S + h with S = sum n_i
    and h = sum 1/n_i in (0, k/2], so h = frac(c) + j for an integer j >= 0
    and S = floor(c) + 2k - 4 - j.  One order is S itself, when h = 1/S;
    two are the integer roots of x^2 - S x + S/h; for three, each first
    order p in (1/h, min(3/h, S/3, bound)] leaves two with sum S - p and
    reciprocal sum h - 1/p.  All of it is int arithmetic on h = num/den.
    bound=None searches every order; hyperbolic=False skips the sides with
    chi = 2 - k + h < 0.  Raises ValueError, before searching, when more
    than PILLOW_ORDER_LIMIT first orders would need trying for one h.
    """
    floor, rem = divmod(c.numerator, c.denominator)
    den = c.denominator
    top = math.inf if bound is None else bound
    sides = []
    # Larger h first: for k = 3 that is the chi >= 0 side, where h > 1 leaves
    # only p = 2; beside it h = frac(c) <= 1/2 on the chi < 0 side.
    for j in range(k // 2, -1, -1):
        num = rem + j * den  # h = num / den, in lowest terms
        if num <= 0 or 2 * num > k * den or (num < (k - 2) * den and not hyperbolic):
            continue
        total = floor + 2 * k - 4 - j
        if k == 1:
            if num == 1 and den == total <= top:
                yield (total,)
        elif k == 2:
            pair = _order_pair(total, num, den)
            if pair is not None and 2 <= pair[0] and pair[1] <= top:
                yield pair
        else:
            first = max(2, den // num + 1)
            last = min(3 * den // num, total // 3, top)
            if last - first + 1 > PILLOW_ORDER_LIMIT:
                raise ValueError(
                    f"c = {c} needs {last - first + 1} first orders tried, "
                    f"more than the limit of {PILLOW_ORDER_LIMIT}"
                )
            sides.append((num, total, first, last))
    for num, total, first, last in sides:
        for p in range(first, last + 1):
            # q + r = total - p and 1/q + 1/r = h - 1/p = (num p - den) / (den p)
            pair = _order_pair(total - p, num * p - den, den * p)
            # a q below p belongs to the triple found at first order q
            if pair is not None and pair[0] >= p and pair[1] <= top:
                yield (p, *pair)


def _preimage_candidates(cls: OrbifoldClass, c: Fraction):
    """The members of the class that can have c, in roster order, without the roster.

    _cone_orders finds the orders of a sphere part.  A spherical family has
    c = a + b (m - 1)^2/m and the teardrop with cone order m has
    c = 4 + (m - 1)^2/m, so the family's order m is the teardrop order
    _cone_orders finds for 4 + (c - a)/b.
    """
    B = cls.bound
    hyperbolic, parts = _CLASSES[cls.kind]
    for part in parts:
        if isinstance(part, int):
            for orders in _cone_orders(c, part, B, hyperbolic):
                yield 0, 0, orders, ()
        elif part is _SPHERICAL_FAMILIES:
            found = sorted(  # the roster's order: by m, then by family
                (m, i)
                for i, (a, b) in enumerate(_FAMILY_LINES)
                for (m,) in _cone_orders(4 + (c - a) / b, 1, B)
            )
            for m, i in found:
                yield part[i](m)
        elif part[0] <= B:
            yield part[1]


def _exact_c(c_value) -> Fraction:
    """c_value as an exact Fraction; ValueError, not Fraction's OverflowError, for an infinity."""
    if c_value in (math.inf, -math.inf):
        raise ValueError(f"c must be finite, got {c_value!r}")
    return Fraction(c_value)


def c_preimage(cls: OrbifoldClass, c_value) -> tuple:
    """All class members whose spectral constant equals c_value exactly, in roster order.

    An exact search that never walks the roster.  Each family's c is a closed
    form in its free orders, and _cone_orders solves it: the spheres with
    one, two or three cone points for their orders, trying at most
    min(2/h, bound) first orders for three, and each spherical one-order
    family as a teardrop.  So the cost is O(1) per family plus that search,
    against one c evaluation per member for a roster walk.  Every candidate is
    confirmed with c_ratio.  Raises ValueError when c_value is not finite or
    the three-cone search would exceed PILLOW_ORDER_LIMIT first orders.
    """
    c = _exact_c(c_value)
    key = (c.numerator, c.denominator)
    return tuple(
        OrbifoldSignature(*member)
        for member in _preimage_candidates(cls, c)
        if c_ratio(*member) == key
    )


class CollisionPair(Record):
    """Two members of a class with the same spectral constant c."""

    __slots__ = ("sig_a", "sig_b", "c")

    def __init__(self, sig_a: OrbifoldSignature, sig_b: OrbifoldSignature, c: Fraction):
        object.__setattr__(self, "sig_a", sig_a)
        object.__setattr__(self, "sig_b", sig_b)
        object.__setattr__(self, "c", c)

    def to_json(self) -> dict:
        return {
            "sig_a": render(self.sig_a),
            "sig_b": render(self.sig_b),
            "c": rational_to_json(self.c),
        }


def _members_at(cls: OrbifoldClass, indices):
    """The members at the given roster indices, in roster order, from one pass over the stems."""
    pending = sorted(indices, reverse=True)  # the smallest index last
    end = 0
    stems = _stems(cls)
    while pending:
        h, k, cones, boundaries, last = next(stems)
        start, end = end, end + len(last)
        while pending and pending[-1] < end:
            yield _grown(h, k, cones, boundaries, last[pending.pop() - start])


# The prime 2^29 - 3, read at call time.  A denominator of c is a product
# of orders and 2s, all below it, so it has an inverse modulo it.  A key
# needs to tell apart only the members of one bucket and the bucket before
# (see collision_groups), where a chance collision costs one exact
# confirmation; and below 2^29 a key, and a sum of two, is a one-digit
# Python int, whose arithmetic takes the interpreter's fast path.
_MODULUS = (1 << 29) - 3


def collision_groups(cls: OrbifoldClass) -> dict:
    """Members grouped by spectral constant, keeping only groups of size >= 2.

    Each member is keyed by c modulo the prime _MODULUS: c is additive over
    strata, so the key is its stem's residue plus what one more cone of
    order r adds.  The scan sweeps the members in integer buckets and holds
    the keys of one bucket and the bucket before, so its memory grows with
    the stems, not the members.  A cone of order r adds r - 2 + 1/r to its
    stem's c_s, so that member goes in bucket r + floor(c_s), and a stem
    fills consecutive buckets, one member each.  That holds at r = 1 too,
    where the cone is an ordinary point and adds 0, so a fixed member goes
    in bucket floor(c) + 1.  So c - bucket lies in (-2, 0), and members
    with equal c share a bucket or sit in adjacent ones.  Members that
    share a key within a bucket, or with the bucket before, are rebuilt
    from the stems and confirmed with the exact c_ratio, which splits a key
    shared by different c.  Groups, and the members in each, come in
    roster order.  Raises roster_size's ValueError, before computing any
    stem's c, when the class has more than SCAN_MEMBER_LIMIT members.
    """
    roster_size(cls)
    P = _MODULUS

    def residue(ratio):
        num, den = ratio
        return num * pow(den, -1, P) % P

    # A stem is (residue, floor(c_s), roster index of its member minus that
    # member's bucket), keyed by the roster index of its first member; starts
    # and ends map a bucket to the stems that begin there and to those whose
    # last bucket is the one before.
    starts, ends = {}, {}
    i = 0
    for h, k, cones, boundaries, last in _stems(cls):
        ratio = c_ratio(h, k, cones, boundaries)
        floor = ratio[0] // ratio[1]
        first = floor + last.start
        starts.setdefault(first, {})[i] = residue(ratio), floor, i - first
        ends.setdefault(first + len(last), []).append(i)
        i += len(last)
    sphere = residue(c_ratio(0, 0, (), ()))
    # cone[r] is what one more cone of order r adds to a residue.
    cone = [0, 0] + [
        (residue(c_ratio(0, 0, (r,), ())) - sphere) % P for r in range(2, cls.bound + 1)
    ]
    shared = set()  # roster indices of the members whose residue is not theirs alone
    active = {}  # the stems with a member in the bucket
    previous = {}  # residue -> roster index of a member with it, in the bucket before
    for b in range(min(starts), max(ends) + 1):
        active.update(starts.pop(b, ()))
        for j in ends.pop(b, ()):
            del active[j]
        # (residue, roster index) of each member in bucket b
        bucket = [((r + cone[b - floor]) % P, offset + b) for r, floor, offset in active.values()]
        keys = dict(bucket)  # each residue -> the last member with it
        if len(keys) < len(bucket):
            for key, j in bucket:
                if keys[key] != j:
                    shared.add(j)
                    shared.add(keys[key])
        if not previous.keys().isdisjoint(keys):
            for key in previous.keys() & keys.keys():
                shared.add(previous[key])
                shared.add(keys[key])
        previous = keys
    groups = {}  # exact c_ratio -> its members, first seen first
    for member in _members_at(cls, shared):
        groups.setdefault(c_ratio(*member), []).append(member)
    return {
        Fraction(*key): tuple(OrbifoldSignature(*m) for m in members)
        for key, members in groups.items()
        if len(members) > 1
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


class PillowSeparation(Record):
    """Outcome of the negative-pillow vs nonnegative-class c comparison."""

    __slots__ = ("distinguished", "negative_member", "positive_member")

    def __init__(
        self,
        distinguished: bool,
        negative_member: OrbifoldSignature | None,
        positive_member: OrbifoldSignature | None,
    ):
        object.__setattr__(self, "distinguished", distinguished)
        object.__setattr__(self, "negative_member", negative_member)
        object.__setattr__(self, "positive_member", positive_member)


def pillow_negative_vs_rest(c_value) -> PillowSeparation:
    """Can c_value be attained both by a chi<0 pillow and by the chi>0 side?

    The chi>0 side is the teardrops plus the chi>0 triangular pillows.  Both
    come from the exact, unbounded search of _cone_orders, and the
    lexicographically first pillow of each sign wins, as in the roster.
    A pillow with p + q + r > c + 1 has h < 1, so chi < 0; one with
    p + q + r < c + 1 has chi > 0.  Raises ValueError when c_value is not
    finite or more than PILLOW_ORDER_LIMIT first orders would need trying.
    """
    c = _exact_c(c_value)
    negative = positive = None
    for orders in _cone_orders(c, 3):
        side = (sum(orders) - 1) * c.denominator - c.numerator  # sign of S - (c + 1)
        if side > 0 and negative is None:
            negative = _sphere(*orders)
        elif side < 0 and positive is None:
            positive = _sphere(*orders)
        if negative is not None and positive is not None:
            break
    if positive is None:
        for orders in _cone_orders(c, 1):
            positive = _sphere(*orders)
    return PillowSeparation(negative is None or positive is None, negative, positive)


def curvature_sign(expansion, abs_K, sig: OrbifoldSignature) -> CurvatureSign:
    """Recover the sign of the constant curvature +-abs_K from a heat.HeatExpansion.

    The degree -1 coefficient recovers the area; subtracting the smooth
    degree-1 part abs_K^2 * area / (60 pi) leaves K times a positive
    combination of cone/corner sums, whose sign is the answer whenever
    singular points exist.  For smooth signatures that remainder is
    identically zero and the (exact) degree-0 coefficient chi/6 decides.
    The test is exact: abs_K and both coefficients count at their exact
    values, a float included, and the remainder must exceed 1e-9 of the
    larger of degree 1 and its smooth part, so it holds at any scale of K.
    Raises ValueError for a non-finite coefficient, and AmbiguousZero when
    both tests vanish.
    """
    if not 0 < abs_K < math.inf:
        raise ValueError(f"abs_K must be finite and > 0, got {abs_K!r}")
    deg_m1, deg_1 = expansion[-1], expansion[1]
    if not (-math.inf < deg_m1 < math.inf and -math.inf < deg_1 < math.inf):
        raise ValueError("the degree -1 and 1 coefficients must be finite")
    deg_1 = Fraction(deg_1)
    smooth_part = Fraction(abs_K) ** 2 * Fraction(deg_m1) / 15
    remainder = deg_1 - smooth_part
    if abs(remainder) * 10**9 > max(abs(deg_1), abs(smooth_part)):
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


def _unit_length_over_pi(sig: OrbifoldSignature) -> Fraction:
    """Mirror length over pi of the K = 1 structure on a good mirrored chi > 0 orbifold.

    It is S^2/G with |G| = 2/chi, and its mirrors lift to k reflection great
    circles; any two cross at two points, each a lift of a corner.  A
    corner of order n lifts to |G|/(2n) points on n circles each, so it
    accounts for (n - 1)|G|/4 of the k(k - 1) (pair, crossing) incidences:
    k(k - 1) = sum (n - 1) / (2 chi).  G fixes a generic mirror point with
    a reflection alone, so it folds the circles' length 2 pi k to
    4 pi k / |G| = 2 pi k chi.
    """
    chi = euler_characteristic(sig)
    if not sig.has_mirrors or is_bad(sig) or chi <= 0:
        raise UnsupportedFamily(
            f"signature {render(sig) or 'sphere'!r} is not a good mirrored spherical orbifold"
        )
    crossings = sum(n - 1 for n in sig.corner_orders) / (2 * chi)
    k = (1 + math.isqrt(1 + 4 * int(crossings))) // 2
    return 2 * k * chi


def unit_sphere_mirror_length(sig: OrbifoldSignature) -> float:
    """Mirror-locus length of the K = 1 structure on a good mirrored orbifold with chi > 0.

    These are the disk (*) and the mirrored spherical families (*m,m), (m*),
    (*2,2,m), (2,*m), (*2,3,3), (*2,3,4), (*2,3,5) and (3,*2); any other
    signature raises UnsupportedFamily.
    """
    return float(_unit_length_over_pi(sig)) * math.pi


def _verdict(a: OrbifoldSignature, b: OrbifoldSignature, lengths: bool) -> Verdict:
    """The first heat-invariant test that separates a and b.

    ByC when the exact spectral constants differ, else ByMirrorPresence
    when exactly one has a mirror locus (the degree -1/2 term), else, with
    lengths, ByMirrorLength when the unit-sphere mirror lengths differ,
    else NotDistinguished.
    """
    if spectral_c(a) != spectral_c(b):
        return Verdict.BY_C
    if a.has_mirrors != b.has_mirrors:
        return Verdict.BY_MIRROR_PRESENCE
    if lengths and a.has_mirrors and _unit_length_over_pi(a) != _unit_length_over_pi(b):
        return Verdict.BY_MIRROR_LENGTH
    return Verdict.NOT_DISTINGUISHED


def spherical_distinguish(a: OrbifoldSignature, b: OrbifoldSignature) -> Verdict:
    """How the spectrum separates two spherical constant-curvature orbifolds.

    Both signatures must be spherical (geometry_type SPHERICAL); a bad,
    flat or hyperbolic one raises ValueError.  ByC when the exact spectral
    constants differ; otherwise ByMirrorPresence when exactly one has a
    mirror locus (the degree -1/2 term); otherwise ByMirrorLength when the
    unit-sphere mirror lengths differ.  NotDistinguished only for identical
    signatures.
    """
    for sig in (a, b):
        kind = geometry_type(sig)
        if kind is not GeometryType.SPHERICAL:
            raise ValueError(
                f"signature {render(sig) or 'sphere'!r} is {kind.value}, not Spherical; "
                "this comparison covers spherical orbifolds only"
            )
    return _verdict(a, b, lengths=True)


def positive_vs_zero_chi(a: OrbifoldSignature, b: OrbifoldSignature) -> Verdict:
    """Does the spectrum separate chi > 0 from chi = 0 for this pair?

    Both signatures must have chi >= 0.  The exact constant c decides
    except for the handful of cross-sign c-collisions, all of which pit a
    mirrorless orbifold against a mirrored one and fall to the degree -1/2
    test.

    Bad orbifolds (teardrops, unequal footballs and their mirrored disks)
    are answered too, although they carry no constant-curvature metric,
    because neither invariant needs one: c = 12 c[0] is topological, by
    the orbifold Gauss-Bonnet theorem, and mirror presence is the sign of
    c[-1/2] = L / (8 sqrt(pi)), positive for every metric exactly when
    there are mirrors.  So the verdict holds for every Riemannian metric.
    """
    for sig in (a, b):
        if euler_characteristic(sig) < 0:
            raise ValueError(
                f"signature {render(sig) or 'sphere'!r} has chi < 0; "
                "this comparison covers chi >= 0 only"
            )
    return _verdict(a, b, lengths=False)
