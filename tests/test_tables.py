"""Tests for the embedded golden tables and their recomputation checks."""

from __future__ import annotations

from fractions import Fraction

import orbheat.tables
from orbheat.heat import degree_zero_term
from orbheat.notation import parse
from orbheat.signature import euler_characteristic, spectral_c
from orbheat.tables import (
    TABLE1_FAMILIES,
    TABLE1_FIXED,
    TABLE2_FAMILY,
    TABLE2_FIXED,
    verify_table1,
    verify_table2,
)


def deg0_from_features(cones, corners):
    """Degree-0 constant straight from the defining sums, bypassing parse."""
    chi = Fraction(2)
    chi -= sum(Fraction(m - 1, m) for m in cones)
    if corners is not None:
        chi -= 1
        chi -= sum(Fraction(n - 1, 2 * n) for n in corners)
    total = chi / 6
    total += sum(Fraction(m * m - 1, 12 * m) for m in cones)
    if corners is not None:
        total += sum(Fraction(n * n - 1, 24 * n) for n in corners)
    return total


class TestReproduction:
    def test_table1_clean(self):
        assert verify_table1() == []

    def test_table1_clean_at_higher_order(self, monkeypatch):
        monkeypatch.setattr(orbheat.tables, "MAX_ORDER", 40)
        assert verify_table1() == []

    def test_table2_clean(self):
        assert verify_table2() == []

    def test_table2_clean_at_higher_order(self, monkeypatch):
        monkeypatch.setattr(orbheat.tables, "MAX_ORDER", 200)
        assert verify_table2() == []


class TestTableOneContent:
    def test_spot_values(self):
        fixed = dict(TABLE1_FIXED)
        assert fixed["2,3,5"] == Fraction(271, 360)
        assert fixed["*2,3,4"] == Fraction(97, 288)
        assert fixed["2,2,2,2"] == Fraction(1, 2)
        assert fixed["2,2×"] == Fraction(1, 4)
        assert fixed["o"] == 0
        assert fixed["××"] == 0
        assert fixed["*,*"] == 0
        assert fixed["*×"] == 0

    def test_fixed_sphere_rows_from_raw_sums(self):
        # recompute the chi > 0 fixed rows from the defining feature sums
        cases = [
            ("2,3,3", (2, 3, 3), None),
            ("2,3,4", (2, 3, 4), None),
            ("2,3,5", (2, 3, 5), None),
            ("*2,3,3", (), (2, 3, 3)),
            ("*2,3,4", (), (2, 3, 4)),
            ("*2,3,5", (), (2, 3, 5)),
            ("3,*2", (3,), (2,)),
        ]
        fixed = dict(TABLE1_FIXED)
        for notation, cones, corners in cases:
            assert fixed[notation] == deg0_from_features(cones, corners)

    def test_fixed_flat_rows_from_raw_sums(self):
        cases = [
            ("2,2,2,2", (2, 2, 2, 2), None),
            ("*2,2,2,2", (), (2, 2, 2, 2)),
            ("2,*2,2", (2,), (2, 2)),
            ("2,2,*", (2, 2), ()),
            ("2,4,4", (2, 4, 4), None),
            ("*2,4,4", (), (2, 4, 4)),
            ("4,*2", (4,), (2,)),
            ("3,3,3", (3, 3, 3), None),
            ("*3,3,3", (), (3, 3, 3)),
            ("2,3,6", (2, 3, 6), None),
            ("*2,3,6", (), (2, 3, 6)),
        ]
        fixed = dict(TABLE1_FIXED)
        for notation, cones, corners in cases:
            assert fixed[notation] == deg0_from_features(cones, corners)

    def test_family_formulas_at_sample_orders(self):
        by_template = dict(TABLE1_FAMILIES)
        teardrop = by_template["{m}"]
        assert teardrop(5) == deg0_from_features((5,), None)
        football = by_template["{m},{n}"]
        assert football(3, 7) == deg0_from_features((3, 7), None)
        mirrored_football = by_template["*{m},{n}"]
        assert mirrored_football(3, 7) == deg0_from_features((), (3, 7))
        pillow = by_template["2,2,{m}"]
        assert pillow(9) == deg0_from_features((2, 2, 9), None)

    def test_mirror_halving_between_families(self):
        # deleting the mirror halves every degree-0 constant: *X = X / 2
        by_template = dict(TABLE1_FAMILIES)
        for m in range(2, 30):
            assert by_template["*{m}"](m) == by_template["{m}"](m) / 2
            assert by_template["*2,2,{m}"](m) == by_template["2,2,{m}"](m) / 2
            for n in range(m, 20):
                assert by_template["*{m},{n}"](m, n) == by_template["{m},{n}"](m, n) / 2

    def test_double_cover_pair_shares_constant(self):
        by_template = dict(TABLE1_FAMILIES)
        for m in range(2, 30):
            assert by_template["{m}×"](m) == by_template["{m}*"](m)


class TestTableTwoContent:
    def test_eleven_fixed_rows_plus_family(self):
        assert len(TABLE2_FIXED) == 11
        assert TABLE2_FAMILY[0] == "2,2,{m}"

    def test_spot_rows(self):
        rows = {n: (chi, c) for n, chi, c in TABLE2_FIXED}
        assert rows["2,3,5"] == (Fraction(1, 30), Fraction(271, 30))
        assert rows["3,3,4"] == (Fraction(-1, 12), Fraction(107, 12))
        assert rows["2,3,6"] == (Fraction(0), Fraction(10))
        assert rows["2,4,5"] == (Fraction(-1, 20), Fraction(199, 20))

    def test_rows_satisfy_orientable_constant_formula(self):
        # c = 2 chi + sum over cone orders of (m - 1/m)
        for notation, chi, c in TABLE2_FIXED:
            orders = [int(tok) for tok in notation.split(",")]
            assert c == 2 * chi + sum(Fraction(m) - Fraction(1, m) for m in orders)

    def test_family_row_formulas(self):
        _, chi_formula, c_formula = TABLE2_FAMILY
        for m in range(2, 50):
            assert chi_formula(m) == Fraction(1, m)
            assert c_formula(m) == Fraction(3) + Fraction(m) + Fraction(1, m)

    def test_geometry_split_by_chi_sign(self):
        signs = [chi for _, chi, _ in TABLE2_FIXED]
        assert sum(1 for chi in signs if chi > 0) == 4
        assert sum(1 for chi in signs if chi == 0) == 3
        assert sum(1 for chi in signs if chi < 0) == 4

    def test_consistent_with_table1_constants(self):
        fixed1 = dict(TABLE1_FIXED)
        for notation, _, c in TABLE2_FIXED:
            if notation in fixed1:
                assert c == 12 * fixed1[notation]


class TestMismatchReporting:
    def test_corrupted_table1_entry_is_reported(self, monkeypatch):
        doctored = (("2,3,5", Fraction(1, 2)),) + tuple(TABLE1_FIXED[1:])
        monkeypatch.setattr(orbheat.tables, "TABLE1_FIXED", doctored)
        report = verify_table1()
        assert len(report) == 1
        record = report[0]
        assert set(record) == {"table", "notation", "column", "expected", "computed"}
        assert record["table"] == 1
        assert record["notation"] == "2,3,5"
        assert record["column"] == "deg0"
        assert record["expected"] == "1/2"
        assert record["computed"] == str(degree_zero_term(parse("2,3,5")))

    def test_corrupted_table2_row_reports_both_columns(self, monkeypatch):
        doctored = (("2,2,2", Fraction(7), Fraction(8)),) + tuple(TABLE2_FIXED[1:])
        monkeypatch.setattr(orbheat.tables, "TABLE2_FIXED", doctored)
        report = verify_table2()
        assert len(report) == 2
        columns = {record["column"] for record in report}
        assert columns == {"chi", "c"}
        for record in report:
            assert record["table"] == 2
            assert record["notation"] == "2,2,2"

    def test_family_rows_are_reported_after_fixed_rows(self, monkeypatch):
        doctored = (("2,3,5", Fraction(1, 2)),) + tuple(TABLE1_FIXED[1:])
        monkeypatch.setattr(orbheat.tables, "TABLE1_FIXED", doctored)
        families = tuple(
            (template, (lambda *orders: Fraction(0)) if template in ("{m}", "{m},{n}") else formula)
            for template, formula in TABLE1_FAMILIES
        )
        monkeypatch.setattr(orbheat.tables, "TABLE1_FAMILIES", families)
        monkeypatch.setattr(orbheat.tables, "MAX_ORDER", 3)
        report = verify_table1()
        assert [r["notation"] for r in report] == ["2,3,5", "2", "3", "2,2", "2,3", "3,3"]
        assert {r["expected"] for r in report[1:]} == {"0"}

    def test_reports_are_strings_for_serialization(self, monkeypatch):
        doctored = (("2,3,3", Fraction(999),),) + tuple(TABLE1_FIXED[1:])
        monkeypatch.setattr(orbheat.tables, "TABLE1_FIXED", doctored)
        for record in verify_table1():
            assert isinstance(record["expected"], str)
            assert isinstance(record["computed"], str)


class TestAgainstLibrary:
    def test_fixed_rows_match_degree_zero_term(self):
        for notation, expected in TABLE1_FIXED:
            assert degree_zero_term(parse(notation)) == expected

    def test_table2_rows_match_library(self):
        for notation, chi, c in TABLE2_FIXED:
            sig = parse(notation)
            assert euler_characteristic(sig) == chi
            assert spectral_c(sig) == c
