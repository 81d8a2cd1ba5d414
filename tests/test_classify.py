"""Tests for the spectral classifier: rosters, scans, and tie-breaking."""

from __future__ import annotations

import bisect
import math
import random
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
from orbheat.heat import HeatExpansion, MetricData, full_expansion, spectral_c
from orbheat.notation import parse, render
from orbheat.signature import OrbifoldSignature, euler_characteristic


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

    def test_default_bound(self):
        assert OrbifoldClass(ClassKind.TRIANGULAR_PILLOWS).bound == 500

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
        assert [render(s) for s in c_preimage(teardrops(120), Fraction(36, 5))] == ["5"]
        assert [render(s) for s in c_preimage(pillows(60), Fraction(43, 6))] == ["2,3,3"]
        assert [render(s) for s in c_preimage(class_c(120), Fraction(97, 12))] == ["2,3,4"]
        hits = c_preimage(spherical(20), Fraction(271, 30))
        assert [render(s) for s in hits] == ["*2,2,15", "2,*15", "2,3,5"]

    def test_unbounded_pillow_collision(self):
        # the known collision 2,8,8 ~ 3,3,12; a roster walk never returns here
        hits = c_preimage(pillows(10**9), Fraction(67, 4))
        assert [render(s) for s in hits] == ["2,8,8", "3,3,12"]

    def test_first_order_range_is_capped(self):
        # h = 1e-7 leaves first orders 10^7+1 .. 2*10^7 to try
        with pytest.raises(ValueError, match=str(PILLOW_ORDER_LIMIT)):
            c_preimage(pillows(10**9), Fraction(600000000000001, 10000000))


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

    def test_limit_stops_one_past(self):
        assert roster_size(pillows(10)) == 165
        assert roster_size(pillows(10), limit=165) == 165
        assert roster_size(pillows(10), limit=5) == 6
        assert roster_size(pillows(10**9), limit=1000) == 1001


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
        assert spherical_distinguish(parse("3,3"), parse("3,3")) == Verdict.NOT_DISTINGUISHED

    def test_symmetric_in_arguments(self):
        cases = [("*2,3,3", "3,*2"), ("4×", "4*"), ("2,3,4", "2,3,5")]
        for a, b in cases:
            assert spherical_distinguish(parse(a), parse(b)) == spherical_distinguish(parse(b), parse(a))


class TestUnitSphereMirrorLength:
    def test_family_lengths(self):
        pi = math.pi
        table = [
            ("*3,3", 2 * pi),
            ("*7,7", 2 * pi),
            ("3*", 2 * pi / 3),
            ("10,*", 2 * pi / 10),
            ("*2,2,3", pi * Fraction(4, 3)),
            ("*2,2,15", pi * Fraction(16, 15)),
            ("2,*3", pi),
            ("2,*15", pi),
            ("*2,3,3", pi),
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
        # *2,2,m bounds a spherical triangle with angles (pi/2, pi/2, pi/m);
        # the spherical law of cosines gives its sides independently
        for m in range(2, 31):
            alpha, beta, gamma = math.pi / 2, math.pi / 2, math.pi / m
            def side(a, b, c):
                return math.acos((math.cos(a) + math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c)))
            perimeter = side(alpha, beta, gamma) + side(beta, gamma, alpha) + side(gamma, alpha, beta)
            assert perimeter == pytest.approx(math.pi * (m + 1) / m, rel=1e-12)
            assert unit_sphere_mirror_length(parse(f"*2,2,{m}")) == pytest.approx(perimeter, rel=1e-12)

    def test_strict_length_inequalities(self):
        # the inequalities that make the mirror-length tie-break decisive
        pi = math.pi
        for m in range(2, 101):
            assert unit_sphere_mirror_length(parse(f"*2,2,{m}")) > unit_sphere_mirror_length(parse(f"2,*{m}"))
            assert unit_sphere_mirror_length(parse(f"*{m},{m}")) > unit_sphere_mirror_length(parse(f"{m},*"))
        assert unit_sphere_mirror_length(parse("*2,3,3")) > unit_sphere_mirror_length(parse("3,*2"))

    def test_unsupported_families_raise(self):
        for notation in ("*2,3,4", "*2,3,5", "2,3,5", "o", "*,*", "2,*3,3", "×"):
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
