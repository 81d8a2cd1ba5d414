"""Tests for the spectral classifier: rosters, scans, and tie-breaking."""

from __future__ import annotations

import bisect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbheat.classify
from orbheat.classify import (
    PILLOW_ORDER_LIMIT,
    AmbiguousZero,
    ClassKind,
    CollisionPair,
    CurvatureSign,
    OrbifoldClass,
    UnsupportedFamily,
    Verdict,
    c_preimage,
    collision_groups,
    curvature_sign,
    enumerate_class,
    injectivity_scan,
    pillow_negative_vs_rest,
    positive_vs_zero_chi,
    roster_size,
    spherical_distinguish,
    unit_sphere_mirror_length,
)
from orbheat.heat import HeatExpansion, MetricData, full_expansion
from orbheat.notation import parse, render
from orbheat.signature import (
    GeometryType,
    OrbifoldSignature,
    euler_characteristic,
    geometry_type,
    spectral_c,
)


def teardrops(bound):
    return OrbifoldClass(ClassKind.TEARDROPS_AND_FOOTBALLS, bound)


def pillows(bound):
    return OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS, bound)


def class_c(bound):
    return OrbifoldClass(ClassKind.CLASS_C_ORIENTABLE, bound)


def spherical(bound):
    return OrbifoldClass(ClassKind.SPHERICAL_CONSTANT_CURVATURE, bound)


def names(cls):
    return sorted(render(sig) for sig in enumerate_class(cls))


def reference_c(sig):
    """12 (chi/6 + sum (m^2-1)/(12m) + sum (n^2-1)/(24n)), term by term."""
    chi = Fraction(2 - 2 * sig.handles - sig.crosscaps - len(sig.mirror_boundaries))
    for m in sig.cone_points:
        chi -= Fraction(m - 1, m)
    for n in sig.corner_orders:
        chi -= Fraction(n - 1, 2 * n)
    total = chi / 6
    for m in sig.cone_points:
        total += Fraction(m * m - 1, 12 * m)
    for n in sig.corner_orders:
        total += Fraction(n * n - 1, 24 * n)
    return 12 * total


def approximate_c(sig):
    """reference_c in floats."""
    chi = 2 - 2 * sig.handles - sig.crosscaps - len(sig.mirror_boundaries)
    chi -= sum((m - 1) / m for m in sig.cone_points)
    chi -= sum((n - 1) / (2 * n) for n in sig.corner_orders)
    total = 2 * chi
    total += sum((m * m - 1) / m for m in sig.cone_points)
    total += sum((n * n - 1) / (2 * n) for n in sig.corner_orders)
    return total


def reference_groups(cls):
    """Every attained c of the class -> its members in roster order, by reference_c."""
    groups = {}
    for sig in enumerate_class(cls):
        groups.setdefault(reference_c(sig), []).append(sig)
    return {c: tuple(sigs) for c, sigs in groups.items()}


def nonnegative_chi_signatures(bound):
    """Every signature with chi >= 0 and orders <= bound, by exhaustive search.

    chi = 2 - 2h - k - b - sum (1 - 1/m) - sum (1 - 1/n)/2 over h handles,
    k crosscaps, b boundaries, cones m and corners n.  chi >= 0 leaves at
    most four cones, and either one boundary with at most four corners or
    two bare boundaries.
    """
    orders = range(2, bound + 1)
    deficit = {  # each multiset of at most four orders -> sum (1 - 1/n)
        ms: sum((Fraction(n - 1, n) for n in ms), Fraction(0))
        for size in range(5)
        for ms in itertools.combinations_with_replacement(orders, size)
    }
    sigs = set()
    for h, k, b in itertools.product(range(2), range(3), range(3)):
        base = 2 - 2 * h - k - b
        for cones, cone_deficit in deficit.items():
            rest = base - cone_deficit
            if rest < 0:
                continue
            for corners in deficit if b == 1 else [()]:
                if rest - deficit[corners] / 2 >= 0:
                    boundaries = (corners,) if b == 1 else ((),) * b
                    sigs.add(OrbifoldSignature(h, k, cones, boundaries))
    return sigs


def constant_curvature_expansion(notation, curvature, mirror_length=0.0):
    sig = parse(notation)
    area = float(2 * math.pi * euler_characteristic(sig) / curvature)
    metric = MetricData(curvature, area, mirror_length=mirror_length)
    return full_expansion(sig, metric), sig


class TestEnums:
    def test_class_kind_values(self):
        assert ClassKind.TEARDROPS_AND_FOOTBALLS.value == "teardrops-footballs"
        assert ClassKind.TRIANGULAR_PILLOWS.value == "pillows"
        assert ClassKind.CLASS_C_ORIENTABLE.value == "class-c"
        assert ClassKind.SPHERICAL_CONSTANT_CURVATURE.value == "spherical"

    def test_verdict_values(self):
        assert Verdict.BY_C.value == "ByC"
        assert Verdict.BY_MIRROR_PRESENCE.value == "ByMirrorPresence"
        assert Verdict.BY_MIRROR_LENGTH.value == "ByMirrorLength"
        assert Verdict.NOT_DISTINGUISHED.value == "NotDistinguished"

    def test_curvature_sign_values(self):
        assert CurvatureSign.POSITIVE.value == "Positive"
        assert CurvatureSign.NEGATIVE.value == "Negative"


class TestOrbifoldClass:
    def test_bound_must_be_at_least_two(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS, bad)

    @pytest.mark.parametrize("bound", [10.0, True, "10", None])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(ValueError, match="bound must be an int"):
            OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS, bound)

    def test_bound_has_no_default(self):
        # The scan command's --bound default is the one home of 500.
        with pytest.raises(TypeError):
            OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS)

    @pytest.mark.parametrize("kind", ["pillows", None, 1, ClassKind])
    def test_kind_must_be_a_class_kind(self, kind):
        # rejected at construction, not on first use
        with pytest.raises(ValueError, match="ClassKind"):
            OrbifoldClass(kind, 10)

    def test_frozen(self):
        cls = pillows(10)
        with pytest.raises(Exception):
            cls.bound = 20


class TestRosters:
    def test_teardrops_and_footballs_bound_four(self):
        # one or two cone points on a sphere, equal orders allowed
        assert names(teardrops(4)) == [
            "2", "2,2", "2,3", "2,4", "3", "3,3", "3,4", "4", "4,4",
        ]

    def test_teardrop_football_count_formula(self):
        # (B-1) teardrops plus (B-1)B/2 unordered football order pairs
        for bound in (2, 3, 10, 60):
            expected = (bound - 1) + (bound - 1) * bound // 2
            assert len(enumerate_class(teardrops(bound))) == expected

    def test_pillows_bound_three(self):
        assert names(pillows(3)) == ["2,2,2", "2,2,3", "2,3,3", "3,3,3"]

    def test_pillow_count_is_order_triples(self):
        # nondecreasing triples of orders in 2..B
        for bound in (2, 3, 5, 20):
            n = bound - 1
            expected = n * (n + 1) * (n + 2) // 6
            assert len(enumerate_class(pillows(bound))) == expected

    def test_class_c_bound_six_membership(self):
        roster = set(names(class_c(6)))
        assert "" in roster          # sphere
        assert "o" in roster         # torus
        assert "2,2,2,2" in roster
        assert "2,3,6" in roster
        assert "2,4,4" in roster
        assert "3,3,3" in roster
        assert "2,3,5" in roster
        assert "5" in roster         # teardrops belong to class C
        assert "3,3,4" not in roster  # chi < 0
        assert "2,2,7" not in roster  # order above the bound

    def test_class_c_count(self):
        # sphere, torus, teardrops, footballs, chi >= 0 triples, (2,2,2,2)
        for bound in (6, 25, 60):
            tf = (bound - 1) + (bound - 1) * bound // 2
            extras = 2 + 1 + (bound - 1) + 6  # sphere/torus, 2222, 22m, fixed triples
            assert len(enumerate_class(class_c(bound))) == tf + extras

    def test_class_c_members_orientable_nonnegative_chi(self):
        for sig in enumerate_class(class_c(12)):
            assert sig.crosscaps == 0
            assert sig.mirror_boundaries == ()
            assert euler_characteristic(sig) >= 0

    def test_spherical_bound_three(self):
        assert names(spherical(3)) == [
            "*2,2", "*2,2,2", "*2,2,3", "*2,3,3", "*3,3",
            "2,*", "2,*2", "2,*3", "2,2", "2,2,2", "2,2,3", "2,3,3",
            "2×", "3,*", "3,*2", "3,3", "3×",
        ]

    def test_spherical_count(self):
        # seven one-parameter families plus up to seven sporadic members
        assert len(enumerate_class(spherical(50))) == 7 * 49 + 7
        assert len(enumerate_class(spherical(5))) == 7 * 4 + 7
        assert len(enumerate_class(spherical(4))) == 7 * 3 + 5
        assert len(enumerate_class(spherical(3))) == 7 * 2 + 3

    def test_spherical_members_have_positive_chi(self):
        for sig in enumerate_class(spherical(15)):
            assert euler_characteristic(sig) > 0

    def test_spherical_excludes_bad_orbifolds(self):
        roster = set(names(spherical(10)))
        assert "2" not in roster
        assert "2,3" not in roster
        assert "*2" not in roster
        assert "*2,3" not in roster

    @pytest.mark.parametrize("bound", range(2, 13))
    def test_class_c_and_spherical_match_their_definitions(self, bound):
        sigs = nonnegative_chi_signatures(bound)
        assert set(enumerate_class(class_c(bound))) == {
            s for s in sigs if s.crosscaps == 0 and not s.mirror_boundaries
        }
        assert set(enumerate_class(spherical(bound))) == {
            s
            for s in sigs
            if geometry_type(s) is GeometryType.SPHERICAL and (s.cone_points or s.corner_orders)
        }

    def test_rosters_have_no_duplicates(self):
        for cls in (teardrops(30), pillows(12), class_c(30), spherical(30)):
            members = enumerate_class(cls)
            assert len(set(members)) == len(members)

    def test_bound_caps_every_order(self):
        for cls in (teardrops(9), pillows(9), class_c(9), spherical(9)):
            for sig in enumerate_class(cls):
                orders = sig.cone_points + sig.corner_orders
                assert all(2 <= m <= 9 for m in orders)


class TestCPreimage:
    def test_football_at_five(self):
        assert [render(s) for s in c_preimage(teardrops(120), Fraction(5))] == ["2,2"]

    def test_teardrop_at_thirty_six_fifths(self):
        hits = c_preimage(teardrops(120), Fraction(36, 5))
        assert [render(s) for s in hits] == ["5"]

    def test_class_c_examples(self):
        assert [render(s) for s in c_preimage(class_c(120), Fraction(97, 12))] == ["2,3,4"]
        assert [render(s) for s in c_preimage(class_c(120), Fraction(9))] == ["2,4,4"]

    def test_pillow_example(self):
        assert [render(s) for s in c_preimage(pillows(60), Fraction(43, 6))] == ["2,3,3"]

    def test_sporadic_spherical_preimage(self):
        hits = c_preimage(spherical(20), Fraction(271, 30))
        assert sorted(render(s) for s in hits) == ["*2,2,15", "2,*15", "2,3,5"]

    def test_miss_returns_empty(self):
        assert c_preimage(teardrops(60), Fraction(1, 7)) == ()

    def test_every_member_is_in_its_own_preimage(self):
        cls = class_c(8)
        for sig in enumerate_class(cls):
            assert sig in c_preimage(cls, spectral_c(sig))

    def test_never_walks_the_roster(self, monkeypatch):
        def no_roster(cls):
            raise AssertionError("c_preimage walked the roster")

        monkeypatch.setattr(orbheat.classify, "_roster", no_roster)
        monkeypatch.setattr(orbheat.classify, "_stems", no_roster)
        assert [render(s) for s in c_preimage(teardrops(120), Fraction(36, 5))] == ["5"]
        assert [render(s) for s in c_preimage(pillows(60), Fraction(43, 6))] == ["2,3,3"]
        assert [render(s) for s in c_preimage(class_c(120), Fraction(97, 12))] == ["2,3,4"]
        hits = c_preimage(spherical(20), Fraction(271, 30))
        assert [render(s) for s in hits] == ["*2,2,15", "2,*15", "2,3,5"]

    @pytest.mark.parametrize(
        "notation, expected",
        [
            ("*100000007,100000007", ["*100000007,100000007", "100000007×", "100000007,*"]),
            ("2,*999999937", ["*2,2,999999937", "2,*999999937"]),
            ("2,2,999999999", ["2,2,999999999"]),
        ],
    )
    def test_spherical_hits_at_bound_ten_to_the_ninth(self, notation, expected):
        hits = c_preimage(spherical(10**9), spectral_c(parse(notation)))
        assert [render(s) for s in hits] == expected

    def test_unbounded_pillow_collision(self):
        # the known collision 2,8,8 ~ 3,3,12; a roster walk never returns here
        hits = c_preimage(pillows(10**9), Fraction(67, 4))
        assert [render(s) for s in hits] == ["2,8,8", "3,3,12"]

    def test_first_order_range_is_capped(self):
        # h = 1e-7 leaves first orders 10^7+1 .. 2*10^7 to try
        c = Fraction(600000000000001, 10000000)
        with pytest.raises(ValueError, match=str(PILLOW_ORDER_LIMIT)):
            c_preimage(pillows(10**9), c)
        # class-c skips the chi < 0 pillows, so only its chi >= 0 side is searched
        for cls in (class_c(10**9), teardrops(10**9), spherical(10**9)):
            assert c_preimage(cls, c) == ()

    @pytest.mark.parametrize("c_value", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_an_infinite_c_is_a_value_error(self, c_value):
        # Fraction(inf) raises OverflowError; nan already raises ValueError.
        message = f"c must be finite, got {c_value!r}"
        with pytest.raises(ValueError, match=message):
            c_preimage(pillows(60), c_value)
        with pytest.raises(ValueError, match=message):
            pillow_negative_vs_rest(c_value)


class TestConeOrders:
    """The one solver for spheres with 1, 2 or 3 cone points against brute force."""

    BOUND = 24

    @pytest.fixture(scope="class")
    def by_c(self):
        found = {}
        for k in (1, 2, 3):
            for orders in itertools.combinations_with_replacement(range(2, self.BOUND + 1), k):
                c = spectral_c(OrbifoldSignature(cone_points=orders))
                found.setdefault((k, c), []).append(orders)
        return found

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_attained_c(self, by_c, k):
        for (kk, c), expected in by_c.items():
            if kk == k:
                assert list(orbheat.classify._cone_orders(c, k, self.BOUND)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chi_nonnegative_side(self, by_c, k):
        for (kk, c), expected in by_c.items():
            if kk == k:
                nonnegative = [
                    o for o in expected if euler_characteristic(OrbifoldSignature(cone_points=o)) >= 0
                ]
                assert list(orbheat.classify._cone_orders(c, k, self.BOUND, hyperbolic=False)) == nonnegative

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_values(self, by_c, k):
        rng = random.Random(k)
        for _ in range(2000):
            c = Fraction(rng.randint(-40, 40 * 60), rng.randint(1, 60))
            assert list(orbheat.classify._cone_orders(c, k, self.BOUND)) == by_c.get((k, c), [])

    def test_unbounded_search_finds_orders_past_any_bound(self):
        assert list(orbheat.classify._cone_orders(spectral_c(parse("10001")), 1)) == [(10001,)]
        assert list(orbheat.classify._cone_orders(spectral_c(parse("3,10001")), 2)) == [(3, 10001)]
        assert list(orbheat.classify._cone_orders(Fraction(67, 4), 3)) == [(2, 8, 8), (3, 3, 12)]


class TestRosterOrder:
    """Rosters come out in a fixed order; scans and preimages inherit it."""

    def ordered(self, cls):
        return [render(sig) for sig in enumerate_class(cls)]

    def test_teardrops_then_footballs(self):
        assert self.ordered(teardrops(4)) == [
            "2", "3", "4", "2,2", "2,3", "2,4", "3,3", "3,4", "4,4",
        ]

    def test_pillows_lexicographic(self):
        assert self.ordered(pillows(4)) == [
            "2,2,2", "2,2,3", "2,2,4", "2,3,3", "2,3,4", "2,4,4",
            "3,3,3", "3,3,4", "3,4,4", "4,4,4",
        ]

    def test_class_c(self):
        assert self.ordered(class_c(4)) == [
            "", "o", "2", "3", "4", "2,2", "2,3", "2,4", "3,3", "3,4", "4,4",
            "2,2,2", "2,2,3", "2,2,4", "2,3,3", "2,3,4", "2,4,4", "3,3,3",
            "2,2,2,2",
        ]

    def test_spherical_families_then_sporadics(self):
        families = []
        for m in range(2, 6):
            families += [
                f"{m},{m}", f"2,2,{m}", f"*{m},{m}", f"{m}×",
                f"{m},*", f"*2,2,{m}", f"2,*{m}",
            ]
        assert self.ordered(spherical(5)) == families + [
            "2,3,3", "2,3,4", "2,3,5", "*2,3,3", "3,*2", "*2,3,4", "*2,3,5",
        ]


class TestRosterSize:
    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_counts_the_roster(self, kind):
        for bound in (2, 3, 12):
            cls = OrbifoldClass(kind, bound)
            assert roster_size(cls) == len(enumerate_class(cls))

    def test_limit_stops_one_past(self, monkeypatch):
        assert roster_size(pillows(10)) == 165
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 165)
        assert roster_size(pillows(10)) == 165
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 164)
        with pytest.raises(ValueError, match="at bound 10 has more than 164 members"):
            roster_size(pillows(10))
        # The count stops at the first stem past the limit, so a roster of
        # about 10^26 members is refused at once.
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 1000)
        with pytest.raises(ValueError, match="more than 1000 members"):
            roster_size(pillows(10**9))

    @pytest.mark.parametrize("walk", [collision_groups, injectivity_scan, enumerate_class])
    def test_every_roster_walk_stops_one_past(self, monkeypatch, walk):
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 165)
        walk(pillows(10))
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 164)
        with pytest.raises(ValueError, match="at bound 10 has more than 164 members"):
            walk(pillows(10))

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_collision_groups_counts_before_computing_any_c(self, monkeypatch, kind):
        # roster_size refuses the class before the stem walk computes a c.
        cls = OrbifoldClass(kind, 10)
        assert roster_size(cls) > 20
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 20)
        calls = []
        c_ratio = orbheat.classify.c_ratio

        def counted(*args):
            calls.append(args)
            return c_ratio(*args)

        monkeypatch.setattr(orbheat.classify, "c_ratio", counted)
        with pytest.raises(ValueError, match="at bound 10 has more than 20 members"):
            collision_groups(cls)
        assert calls == []

    @pytest.mark.parametrize("walk", [collision_groups, enumerate_class])
    def test_every_roster_walk_refuses_a_huge_roster_at_once(self, walk):
        # Pillows at bound 10^9 pass the limit in their first stem, before a
        # scan builds its table of 10^9 cone residues.
        with pytest.raises(ValueError, match="more than 1000000 members"):
            walk(pillows(10**9))


class TestScansMatchFractionReference:
    """The int-keyed scans against plain Fraction bookkeeping over the roster."""

    BOUND = 60

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_scans_equal_reference(self, kind):
        cls = OrbifoldClass(kind, self.BOUND)
        roster = enumerate_class(cls)
        c_of = {sig: reference_c(sig) for sig in roster}

        groups = {}
        for sig in roster:
            groups.setdefault(c_of[sig], []).append(sig)
        expected_groups = {c: tuple(s) for c, s in groups.items() if len(s) >= 2}
        got_groups = collision_groups(cls)
        assert list(got_groups.items()) == list(expected_groups.items())
        assert all(type(c) is Fraction for c in got_groups)

        expected_pairs = tuple(
            CollisionPair(sigs[i], sigs[j], c)
            for c, sigs in sorted(expected_groups.items())
            for i in range(len(sigs))
            for j in range(i + 1, len(sigs))
        )
        assert injectivity_scan(cls) == expected_pairs

        sample = random.Random(kind.value).sample(roster, min(12, len(roster)))
        targets = {c_of[sig] for sig in sample}
        misses = {Fraction(1, 7), Fraction(-10**6), Fraction(10**9 + 1, 3)}
        assert not misses & set(c_of.values())
        for target in sorted(targets | misses):
            expected = tuple(groups.get(target, ()))
            assert c_preimage(cls, target) == expected
            assert (target in targets) == bool(expected)

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_preimage_equals_reference_at_every_attained_c(self, kind):
        cls = OrbifoldClass(kind, 50)
        groups = reference_groups(cls)
        for target, expected in groups.items():
            assert c_preimage(cls, target) == expected

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_preimage_equals_reference_on_a_sample_at_bound_100(self, kind):
        # reference_c over all 166,650 pillows would take seconds, so floats
        # narrow the roster to a window around each target and reference_c
        # decides within it; a float c is within 1e-12 of the exact one.
        cls = OrbifoldClass(kind, 100)
        roster = enumerate_class(cls)
        by_float = sorted((approximate_c(sig), i) for i, sig in enumerate(roster))
        floats = [x for x, _ in by_float]

        def reference_preimage(target):
            lo = bisect.bisect_left(floats, float(target) - 1e-9)
            hi = bisect.bisect_right(floats, float(target) + 1e-9)
            hits = sorted(i for _, i in by_float[lo:hi] if reference_c(roster[i]) == target)
            return tuple(roster[i] for i in hits)

        members = random.Random(kind.value).sample(roster, min(2000, len(roster)))
        attained = {reference_c(sig) for sig in members}
        misses = {Fraction(1, 7), Fraction(-10**6), Fraction(10**9 + 1, 3)}
        for target in sorted(attained | misses):
            expected = reference_preimage(target)
            assert c_preimage(cls, target) == expected
            assert (target in attained) == bool(expected)

    def test_preimage_accepts_int_and_string_values(self):
        assert [render(s) for s in c_preimage(pillows(12), 8)] == ["3,3,3"]
        hits = c_preimage(spherical(20), "271/30")
        assert hits == c_preimage(spherical(20), Fraction(271, 30)) != ()


def reference_collisions(cls):
    """reference_groups restricted to the groups of two or more members."""
    return {c: sigs for c, sigs in reference_groups(cls).items() if len(sigs) >= 2}


def reference_pairs(groups):
    return tuple(
        CollisionPair(sigs[i], sigs[j], c)
        for c, sigs in sorted(groups.items())
        for i in range(len(sigs))
        for j in range(i + 1, len(sigs))
    )


class TestResidueKeyedScan:
    """collision_groups keys members by c modulo a prime and confirms exactly."""

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_forced_residue_collisions_are_split_exactly(self, kind, monkeypatch):
        # Modulo 1009 most members share a key with another.  1009 is a prime
        # above every order and corner denominator at bound 40, so each
        # denominator still has an inverse.
        monkeypatch.setattr(orbheat.classify, "_MODULUS", 1009)
        cls = OrbifoldClass(kind, 40)
        expected = reference_collisions(cls)
        assert list(collision_groups(cls).items()) == list(expected.items())
        assert injectivity_scan(cls) == reference_pairs(expected)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(list(ClassKind)), bound=st.integers(2, 40))
    def test_groups_and_size_equal_reference(self, kind, bound):
        # bound 2 leaves class-c's (2,3,r) and (2,4,r) runs empty.
        cls = OrbifoldClass(kind, bound)
        expected = reference_collisions(cls)
        assert list(collision_groups(cls).items()) == list(expected.items())
        assert roster_size(cls) == len(enumerate_class(cls))

    def test_equal_c_in_adjacent_buckets(self, monkeypatch):
        # Spheres with two cone points beside the spherical families list
        # each football m,m twice: once as a family's own stem, in bucket
        # floor(c) + 1, and once as the last cone of the stem (m), in bucket
        # m + floor(c(m)).  For m >= 3 those are adjacent buckets, a pair no
        # real roster has.
        spherical_kind = ClassKind.SPHERICAL_CONSTANT_CURVATURE
        monkeypatch.setitem(
            orbheat.classify._CLASSES,
            spherical_kind,
            (True, (orbheat.classify._SPHERICAL_FAMILIES, 2)),
        )
        cls = OrbifoldClass(spherical_kind, 30)
        expected = {}
        for member in orbheat.classify._roster(cls):
            sig = OrbifoldSignature(*member)
            expected.setdefault(reference_c(sig), []).append(sig)
        expected = {c: tuple(sigs) for c, sigs in expected.items() if len(sigs) > 1}
        assert expected[Fraction(20, 3)] == (parse("3,3"), parse("3,3"))
        assert list(collision_groups(cls).items()) == list(expected.items())

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_every_stem_has_a_range_of_last_orders(self, kind):
        # A fixed member is its own stem with one more cone of order 1, an
        # ordinary point, which no member carries.
        for bound in range(2, 31):
            cls = OrbifoldClass(kind, bound)
            assert all(type(stem[-1]) is range for stem in orbheat.classify._stems(cls))
            for _, _, cones, boundaries in orbheat.classify._roster(cls):
                assert min(cones + sum(boundaries, ()), default=2) >= 2
            for sigs in collision_groups(cls).values():
                assert all(min(s.cone_points + s.corner_orders, default=2) >= 2 for s in sigs)

    def test_memory_peak_of_a_pillow_scan(self):
        # Bytes, never times: 166,650 members, swept bucket by bucket, peak
        # under 4 MB; a dict entry per member took about 16 MB.
        tracemalloc.start()
        try:
            collision_groups(pillows(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6


class TestInjectivityScans:
    def test_teardrops_footballs_no_collisions(self):
        assert injectivity_scan(teardrops(60)) == ()

    def test_class_c_no_collisions(self):
        assert injectivity_scan(class_c(60)) == ()

    def test_collision_groups_empty_for_injective_classes(self):
        assert collision_groups(teardrops(40)) == {}
        assert collision_groups(class_c(40)) == {}

    def test_collision_pair_fields_consistent(self):
        for pair in injectivity_scan(spherical(12)):
            assert isinstance(pair, CollisionPair)
            assert spectral_c(pair.sig_a) == pair.c
            assert spectral_c(pair.sig_b) == pair.c
            assert pair.sig_a != pair.sig_b

    def test_collision_pair_json(self):
        pair = injectivity_scan(spherical(5))[0]
        blob = pair.to_json()
        assert set(blob) == {"sig_a", "sig_b", "c"}
        assert isinstance(blob["sig_a"], str)
        assert isinstance(blob["sig_b"], str)
        assert set(blob["c"]) == {"num", "den"}
        assert Fraction(int(blob["c"]["num"]), int(blob["c"]["den"])) == pair.c


class TestSphericalCollisionStructure:
    def test_group_census_at_bound_twenty(self):
        groups = collision_groups(spherical(20))
        sizes = {}
        for sigs in groups.values():
            sizes[len(sigs)] = sizes.get(len(sigs), 0) + 1
        assert sizes == {3: 20, 2: 19}
        assert len(injectivity_scan(spherical(20))) == 20 * 3 + 19

    def test_groups_match_double_cover_families(self):
        groups = collision_groups(spherical(20))
        found = {frozenset(render(s) for s in sigs) for sigs in groups.values()}
        expected = set()
        for m in range(2, 21):
            expected.add(frozenset({f"*{m},{m}", f"{m}×", f"{m},*"}))
            if m == 15:
                # the (2,3,5) constant 271/30 lands on the m = 15 pair
                expected.add(frozenset({"*2,2,15", "2,*15", "2,3,5"}))
            else:
                expected.add(frozenset({f"*2,2,{m}", f"2,*{m}"}))
        expected.add(frozenset({"*2,3,3", "3,*2"}))
        assert found == expected

    def test_group_constants(self):
        groups = collision_groups(spherical(20))
        by_name = {frozenset(render(s) for s in sigs): c for c, sigs in groups.items()}
        for m in range(2, 21):
            assert by_name[frozenset({f"*{m},{m}", f"{m}×", f"{m},*"})] == Fraction(m) + Fraction(1, m)
            key = frozenset({"*2,2,15", "2,*15", "2,3,5"}) if m == 15 else frozenset({f"*2,2,{m}", f"2,*{m}"})
            assert by_name[key] == Fraction(3, 2) + Fraction(m, 2) + Fraction(1, 2 * m)
        assert by_name[frozenset({"*2,3,3", "3,*2"})] == Fraction(43, 12)

    def test_every_collision_pair_is_resolved(self):
        for pair in injectivity_scan(spherical(20)):
            verdict = spherical_distinguish(pair.sig_a, pair.sig_b)
            assert verdict != Verdict.NOT_DISTINGUISHED
            if pair.sig_a.has_mirrors != pair.sig_b.has_mirrors:
                assert verdict == Verdict.BY_MIRROR_PRESENCE
            else:
                assert verdict == Verdict.BY_MIRROR_LENGTH


class TestSphericalDistinguish:
    def test_mirror_length_separates_tetrahedral_pair(self):
        verdict = spherical_distinguish(parse("*2,3,3"), parse("3,*2"))
        assert verdict == Verdict.BY_MIRROR_LENGTH

    def test_mirror_presence_separates_crosscap_from_mirror(self):
        for m in range(2, 11):
            verdict = spherical_distinguish(parse(f"{m}×"), parse(f"{m}*"))
            assert verdict == Verdict.BY_MIRROR_PRESENCE

    def test_mirror_length_separates_lune_from_half_lune(self):
        for m in range(2, 11):
            verdict = spherical_distinguish(parse(f"*{m},{m}"), parse(f"{m}*"))
            assert verdict == Verdict.BY_MIRROR_LENGTH

    def test_distinct_constants_resolved_by_c(self):
        assert spherical_distinguish(parse("2,3,4"), parse("2,3,5")) == Verdict.BY_C

    def test_sporadic_triple_pairs(self):
        assert spherical_distinguish(parse("2,3,5"), parse("*2,2,15")) == Verdict.BY_MIRROR_PRESENCE
        assert spherical_distinguish(parse("2,3,5"), parse("2,*15")) == Verdict.BY_MIRROR_PRESENCE
        assert spherical_distinguish(parse("*2,2,15"), parse("2,*15")) == Verdict.BY_MIRROR_LENGTH

    def test_identical_signatures_not_distinguished(self):
        for notation in ("3,3", "*2,3,4", "*2,3,5"):
            assert spherical_distinguish(parse(notation), parse(notation)) == Verdict.NOT_DISTINGUISHED

    @pytest.mark.parametrize(
        "a, b",
        [
            ("2,3,7", "3,3,4"),  # hyperbolic, distinct c
            ("*2,3,7", "*2,3,7"),  # mirrored hyperbolic
            ("o", "o"),  # flat
            ("2,2,2,2", "*2,2,2,2"),  # flat, mirror presence differs
            ("2", "2"),  # bad
            ("*2,3", "2,3"),  # bad, mirrored against mirrorless
        ],
    )
    def test_non_spherical_rejected(self, a, b):
        for pair in ((a, b), ("2,3,5", a), (a, "2,3,5")):
            with pytest.raises(ValueError, match="covers spherical orbifolds only"):
                spherical_distinguish(*map(parse, pair))

    def test_symmetric_in_arguments(self):
        cases = [("*2,3,3", "3,*2"), ("4×", "4*"), ("2,3,4", "2,3,5")]
        for a, b in cases:
            assert spherical_distinguish(parse(a), parse(b)) == spherical_distinguish(parse(b), parse(a))


class TestUnitSphereMirrorLength:
    def test_family_lengths(self):
        pi = math.pi
        table = [
            ("*", 2 * pi),  # the disk: a hemisphere bounded by its equator
            ("*3,3", 2 * pi),
            ("*7,7", 2 * pi),
            ("3*", 2 * pi / 3),
            ("10,*", 2 * pi / 10),
            ("*2,2,3", pi * Fraction(4, 3)),
            ("*2,2,15", pi * Fraction(16, 15)),
            ("2,*3", pi),
            ("2,*15", pi),
            ("*2,3,3", pi),
            ("*2,3,4", pi * Fraction(3, 4)),
            ("*2,3,5", pi / 2),
            ("3,*2", pi / 2),
        ]
        for notation, expected in table:
            got = unit_sphere_mirror_length(parse(notation))
            assert got == pytest.approx(float(expected), rel=1e-14)

    def test_lune_boundary_is_a_great_circle(self):
        # the mirror boundary of *m,m is a full great circle regardless of m
        for m in range(2, 40):
            assert unit_sphere_mirror_length(parse(f"*{m},{m}")) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_right_triangle_perimeter_oracle(self):
        # *2,p,q bounds a spherical triangle with angles (pi/2, pi/p, pi/q);
        # the spherical law of cosines gives its sides independently
        def side(a, b, c):
            return math.acos((math.cos(a) + math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c)))
        triangles = [(2, m) for m in range(2, 31)] + [(3, 3), (3, 4), (3, 5)]
        for p, q in triangles:
            alpha, beta, gamma = math.pi / 2, math.pi / p, math.pi / q
            perimeter = side(alpha, beta, gamma) + side(beta, gamma, alpha) + side(gamma, alpha, beta)
            if p == 2:
                assert perimeter == pytest.approx(math.pi * (q + 1) / q, rel=1e-12)
            assert unit_sphere_mirror_length(parse(f"*2,{p},{q}")) == pytest.approx(perimeter, rel=1e-12)

    def test_strict_length_inequalities(self):
        # the inequalities that make the mirror-length tie-break decisive
        pi = math.pi
        for m in range(2, 101):
            assert unit_sphere_mirror_length(parse(f"*2,2,{m}")) > unit_sphere_mirror_length(parse(f"2,*{m}"))
            assert unit_sphere_mirror_length(parse(f"*{m},{m}")) > unit_sphere_mirror_length(parse(f"{m},*"))
        assert unit_sphere_mirror_length(parse("*2,3,3")) > unit_sphere_mirror_length(parse("3,*2"))

    def test_reflection_circles_from_corner_crossings(self):
        # Any two of the k reflection great circles of S^2/G cross at two
        # points, and a corner of order n lifts to |G|/(2n) points on n
        # circles each, so k(k - 1) = D with D = sum (n - 1) / (2 chi).  The
        # reference counts are the per-family orbit counts, and the length
        # must be the float of 2 pi k chi.
        reference = [("*2,3,3", 6), ("3,*2", 3), ("*2,3,4", 9), ("*2,3,5", 15)]
        for m in range(2, 501):
            reference += [(f"*{m},{m}", m), (f"{m}*", 1), (f"*2,2,{m}", m + 1), (f"2,*{m}", m)]
        for notation, circles in reference:
            sig = parse(notation)
            chi = euler_characteristic(sig)
            crossings = sum(n - 1 for n in sig.corner_orders) / (2 * chi)
            assert crossings.denominator == 1, notation
            root = math.isqrt(1 + 4 * int(crossings))
            assert root * root == 1 + 4 * crossings, notation
            assert (1 + root) // 2 == circles, notation
            assert unit_sphere_mirror_length(sig) == float(2 * circles * chi) * math.pi, notation

    def test_unsupported_families_raise(self):
        # no mirror (2,3,5, o, ×); bad (*5, *2,3); chi = 0 (*,*, *2,2,2,2, 2,2,*);
        # chi < 0 (2,*3,3, *2,3,7)
        for notation in ("2,3,5", "o", "*,*", "2,*3,3", "×",
                         "*5", "*2,3", "*2,2,2,2", "*2,3,7", "2,2,*"):
            with pytest.raises(UnsupportedFamily):
                unit_sphere_mirror_length(parse(notation))


class TestPillowNegativeVsRest:
    def test_table_constants_with_negative_attainment(self):
        cases = [
            (Fraction(107, 12), "3,3,4"),
            (Fraction(59, 6), "3,4,4"),
            (Fraction(148, 15), "3,3,5"),
            (Fraction(199, 20), "2,4,5"),
            (Fraction(461, 42), "2,3,7"),
        ]
        for c_value, expected in cases:
            sep = pillow_negative_vs_rest(c_value)
            assert sep.distinguished
            assert render(sep.negative_member) == expected
            assert sep.positive_member is None

    def test_positive_attainment_only(self):
        sep = pillow_negative_vs_rest(Fraction(43, 6))
        assert sep.distinguished
        assert sep.negative_member is None
        assert render(sep.positive_member) == "2,3,3"

    def test_unattained_value(self):
        sep = pillow_negative_vs_rest(Fraction(0))
        assert sep.distinguished
        assert sep.negative_member is None
        assert sep.positive_member is None

    def test_football_family_constants_never_collide(self):
        # c(2,2,m) = 3 + m + 1/m sits on the chi > 0 side for every m
        for m in range(2, 101):
            c_value = Fraction(3) + Fraction(m) + Fraction(1, m)
            sep = pillow_negative_vs_rest(c_value)
            assert sep.distinguished
            assert sep.negative_member is None

    def test_every_small_negative_pillow_is_distinguished(self):
        for sig in enumerate_class(pillows(20)):
            if euler_characteristic(sig) >= 0:
                continue
            sep = pillow_negative_vs_rest(spectral_c(sig))
            assert sep.distinguished
            assert sep.negative_member is not None
            assert spectral_c(sep.negative_member) == spectral_c(sig)

    def test_matches_brute_force_on_every_small_order_c(self):
        # A pillow has c = S - 2 + h with h = 1/p+1/q+1/r in (0, 3/2], so
        # every triple attaining c has its order sum S in [c+1/2, c+2).  The
        # c values of orders <= 40 stay below 120, so all triples with
        # S <= 122 and all teardrops up to 120 decide them.
        def pillow_c(p, q, r):
            return Fraction(p + q + r - 2) + Fraction(1, p) + Fraction(1, q) + Fraction(1, r)

        negative, positive = {}, {}
        for total in range(6, 123):
            for p in range(2, total // 3 + 1):
                for q in range(p, (total - p) // 2 + 1):
                    c_value = pillow_c(p, q, total - p - q)
                    if c_value.denominator != 1:  # an integer c means h = 1, chi = 0
                        side = negative if c_value < total - 1 else positive  # h < 1 or h > 1
                        side.setdefault(c_value, (p, q, total - p - q))
        for m in range(2, 121):
            positive[Fraction(m + 2) + Fraction(1, m)] = (m,)
        attained = {pillow_c(p, q, r) for p in range(2, 41) for q in range(p, 41) for r in range(q, 41)}
        attained.update(Fraction(m + 2) + Fraction(1, m) for m in range(2, 41))
        for c_value in attained:
            sep = pillow_negative_vs_rest(c_value)
            neg, pos = negative.get(c_value), positive.get(c_value)
            assert sep.negative_member == (None if neg is None else OrbifoldSignature(cone_points=neg))
            assert sep.positive_member == (None if pos is None else OrbifoldSignature(cone_points=pos))
            assert sep.distinguished == (neg is None or pos is None)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(2, 10_000), min_size=3, max_size=3),
            st.lists(st.integers(2, 10**9), min_size=1, max_size=1),
        )
    )
    def test_member_on_its_chi_side_has_the_same_c(self, orders):
        sig = OrbifoldSignature(cone_points=tuple(orders))
        c_value = spectral_c(sig)
        sep = pillow_negative_vs_rest(c_value)
        chi = euler_characteristic(sig)
        if chi == 0:
            assert (sep.negative_member, sep.positive_member) == (None, None)
            return
        member = sep.negative_member if chi < 0 else sep.positive_member
        assert member is not None
        assert spectral_c(member) == c_value

    def test_first_order_range_is_capped(self):
        # h = 1e-7 leaves first orders 10^7+1 .. 2*10^7 to try
        with pytest.raises(ValueError, match=str(PILLOW_ORDER_LIMIT)):
            pillow_negative_vs_rest(Fraction(600000000000001, 10000000))


class TestCurvatureSign:
    def test_spherical_examples(self):
        for notation in ("2,3,5", "2,3,4", "2,2,7", "5,5"):
            expansion, sig = constant_curvature_expansion(notation, Fraction(1))
            assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.POSITIVE

    def test_hyperbolic_examples(self):
        for notation in ("3,3,4", "2,3,7", "2,2,2,3"):
            expansion, sig = constant_curvature_expansion(notation, Fraction(-1))
            assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.NEGATIVE

    def test_smooth_branch_uses_degree_zero(self):
        expansion, sig = constant_curvature_expansion("", Fraction(1))
        assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.POSITIVE
        expansion, sig = constant_curvature_expansion("o,o", Fraction(-1))
        assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.NEGATIVE

    def test_mirrored_hyperbolic(self):
        expansion, sig = constant_curvature_expansion("*2,3,7", Fraction(-1), mirror_length=1.0)
        assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.NEGATIVE

    def test_scaled_curvature(self):
        expansion, sig = constant_curvature_expansion("2,3,5", Fraction(1, 4))
        assert curvature_sign(expansion, 0.25, sig) == CurvatureSign.POSITIVE

    def test_degree_one_past_the_float_range(self):
        # The remainder is K times a positive singular sum, past the float range.
        expansion, sig = constant_curvature_expansion("2,2," + "7" * 250, Fraction(1))
        assert curvature_sign(expansion, 1.0, sig) == CurvatureSign.POSITIVE

    def test_ambiguous_zero(self):
        # degree-1 matches the smooth prediction exactly and degree 0 vanishes
        flat = HeatExpansion({
            Fraction(-1): 1.0,
            Fraction(-1, 2): 0.0,
            Fraction(0): Fraction(0),
            Fraction(1, 2): 0.0,
            Fraction(1): 1.0 / 15.0,
        })
        with pytest.raises(AmbiguousZero):
            curvature_sign(flat, 1.0, parse("o"))

    @pytest.mark.parametrize(
        "notation", ["2,3,5", "2,3,7", "*2,3,7", "2,2,3,3", "3*", "*2,2,5", "o,2", "", "o,o"]
    )
    def test_sign_at_every_scale_of_curvature(self, notation):
        # K = +-10^e at its Gauss-Bonnet area, e from -300 to 300.  In floats,
        # K^2 overflows past about 1e154, and a tolerance with a floor at 1
        # swallows the remainder below about 1e-9.
        chi = euler_characteristic(parse(notation))
        sign = CurvatureSign.POSITIVE if chi > 0 else CurvatureSign.NEGATIVE
        wrong = []
        for e in range(-300, 301, 10):
            K = Fraction(10) ** e if chi > 0 else -Fraction(10) ** e
            expansion, sig = constant_curvature_expansion(notation, K, 1.0 if "*" in notation else 0.0)
            try:
                got = curvature_sign(expansion, 10.0**e, sig)
            except AmbiguousZero:
                got = None
            if got is not sign:
                wrong.append(e)
        assert wrong == []

    @pytest.mark.parametrize(
        "degree, value",
        [(1, math.inf), (1, -math.inf), (1, math.nan), (-1, math.inf), (-1, math.nan)],
    )
    def test_non_finite_coefficient(self, degree, value):
        coefficients = {
            Fraction(-1): 1.0,
            Fraction(-1, 2): 0.0,
            Fraction(0): Fraction(1, 6),
            Fraction(1, 2): 0.0,
            Fraction(1): 1.0,
        }
        coefficients[Fraction(degree)] = value
        with pytest.raises(ValueError, match="must be finite"):
            curvature_sign(HeatExpansion(coefficients), 1.0, parse("2,3,5"))

    def test_invalid_abs_curvature(self):
        expansion, sig = constant_curvature_expansion("2,3,5", Fraction(1))
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                curvature_sign(expansion, bad, sig)


class TestPositiveVsZeroChi:
    def test_exceptional_pairs_resolved_by_mirror_presence(self):
        pairs = [
            ("", "*3,3,3"),
            ("", "3*3"),
            ("2,2", "*2,3,6"),
            ("2", "*2,4,4"),
            ("2", "4*2"),
        ]
        for a, b in pairs:
            assert spectral_c(parse(a)) == spectral_c(parse(b))
            assert positive_vs_zero_chi(parse(a), parse(b)) == Verdict.BY_MIRROR_PRESENCE

    def test_generic_pairs_resolved_by_c(self):
        assert positive_vs_zero_chi(parse("3,3,3"), parse("2,4,4")) == Verdict.BY_C
        assert spectral_c(parse("3,3,3")) == 8
        assert spectral_c(parse("2,4,4")) == 9

    def test_flat_mirrored_pair_not_distinguished(self):
        # both have c = 3, and both carry mirrors, so every invariant here ties
        a, b = parse("2,*2,2"), parse("2,2*")
        assert positive_vs_zero_chi(a, b) == Verdict.NOT_DISTINGUISHED

    def test_flat_mirrored_pair_shares_whole_expansion(self):
        # with matched flat metric data the two expansions agree termwise
        metric = MetricData(0, 1.0, mirror_length=1.0)
        ea = full_expansion(parse("2,*2,2"), metric)
        eb = full_expansion(parse("2,2*"), metric)
        for degree in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)):
            assert ea.as_float(degree) == eb.as_float(degree)
        assert ea.degree_zero == eb.degree_zero == Fraction(1, 4)

    def test_negative_chi_rejected(self):
        with pytest.raises(ValueError):
            positive_vs_zero_chi(parse("2,3,7"), parse("o"))
        with pytest.raises(ValueError):
            positive_vs_zero_chi(parse("o"), parse("o,o"))

    def test_symmetric_in_arguments(self):
        for a, b in (("", "*3,3,3"), ("3,3,3", "2,4,4"), ("2,*2,2", "2,2*")):
            assert positive_vs_zero_chi(parse(a), parse(b)) == positive_vs_zero_chi(parse(b), parse(a))
