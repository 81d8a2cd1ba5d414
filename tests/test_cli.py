"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbheat.classify
import orbheat.cli
import orbheat.tables
from orbheat.classify import SCAN_MEMBER_LIMIT
from orbheat.cli import run
from orbheat.flat import FlatModel, heat_trace
from orbheat.heat import MetricData, full_expansion
from orbheat.notation import parse
from orbheat.signature import euler_characteristic, signature_to_json, spectral_c


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_c_text(self, capsys):
        code, out, _ = invoke(capsys, "c", "2,3,5")
        assert code == 0
        assert out == "271/30\n"

    def test_c_json(self, capsys):
        code, out, _ = invoke(capsys, "c", "2,3,5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"num": "271", "den": "30"}

    def test_chi_text(self, capsys):
        code, out, _ = invoke(capsys, "chi", "*2,3,6")
        assert code == 0
        assert out == "0\n"

    def test_chi_negative(self, capsys):
        code, out, _ = invoke(capsys, "chi", "o,o")
        assert code == 0
        assert out == "-2\n"

    def test_chi_json(self, capsys):
        code, out, _ = invoke(capsys, "chi", "2,3,7", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"num": "-1", "den": "42"}


class TestOrdersAtTheDigitLimit:
    """Orders as long as int() converts still print their exact rationals.

    An order of sys.get_int_max_str_digits() digits parses, but c, chi and
    the exact degree-1 coefficient then have more digits than str() of an
    int allows; one digit more is a parse error.
    """

    @staticmethod
    def unlimited(value):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value.numerator), str(value.denominator), str(value)
        finally:
            sys.set_int_max_str_digits(limit)

    @staticmethod
    def notation():
        digits = sys.get_int_max_str_digits()
        return f"2,{'9' * digits},{'9' * (digits - 1)}8"

    @pytest.mark.parametrize("command", ["c", "chi"])
    def test_text_and_json(self, capsys, command):
        compute = spectral_c if command == "c" else euler_characteristic
        num, den, text = self.unlimited(compute(parse(self.notation())))
        assert len(num) > sys.get_int_max_str_digits()
        start = time.perf_counter()
        assert invoke(capsys, command, self.notation()) == (0, text + "\n", "")
        code, out, err = invoke(capsys, command, self.notation(), "--format", "json")
        assert time.perf_counter() - start < 5
        assert (code, json.loads(out), err) == (0, {"num": num, "den": den}, "")

    def test_expansion_degree_one(self, capsys):
        # K = 1 + 10^-d, d digits below the limit, and a 100-digit order keep
        # every float finite while the exact degree-1 coefficient passes it
        d = sys.get_int_max_str_digits() - 100
        K = Fraction(10**d + 1, 10**d)
        notation = "2,2," + "7" * 100
        sig = parse(notation)
        area = 2 * math.pi * float(euler_characteristic(sig)) / float(K)
        expansion = full_expansion(sig, MetricData(K, area))
        _, _, degree_one = self.unlimited(expansion[1])
        assert len(degree_one) > sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "expansion", notation, "--curvature", f"{10**d + 1}/{10**d}")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"deg 1: {degree_one}"

    def test_expansion_degree_one_past_the_float_range(self, capsys):
        # a 250-digit order puts the exact degree-1 coefficient past a float
        notation = "2,2," + "7" * 250
        sig = parse(notation)
        area = 2 * math.pi * float(euler_characteristic(sig))
        degree_one = full_expansion(sig, MetricData(1, area))[1]
        code, out, err = invoke(capsys, "expansion", notation, "--curvature", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"deg 1: {degree_one}"
        code, out, err = invoke(capsys, "expansion", notation, "--curvature", "1", "--format", "json")
        assert (code, out) == (1, "")
        assert err == "error: the degree 1 coefficient is past the float range of JSON output\n"

    def test_gauss_bonnet_violation_prints_chi(self, capsys):
        # chi < 0 with K = 1 forces a negative area; chi has ~6000 digits
        notation = f"2,{'9' * 3000},7{'9' * 3000}"
        num, den, _ = self.unlimited(euler_characteristic(parse(notation)))
        code, out, err = invoke(capsys, "expansion", notation, "--curvature", "1")
        assert (code, out) == (2, "")
        assert f"chi = {num}/{den}, K = 1 " in err

    @pytest.mark.parametrize("command", ["parse", "c", "chi"])
    def test_one_digit_more_is_a_parse_error(self, capsys, command):
        digits = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, command, "2," + "9" * (digits + 1))
        assert (code, out) == (1, "")
        assert err == (
            f"error: order has {digits + 1} digits, more than the limit of {digits} (at position 2)\n"
        )


class TestParseCommand:
    def test_json_matches_library(self, capsys):
        code, out, _ = invoke(capsys, "parse", "O(2,2x)", "--format", "json")
        assert code == 0
        assert json.loads(out) == signature_to_json(parse("2,2×"))

    def test_text_contains_canonical_notation(self, capsys):
        code, out, _ = invoke(capsys, "parse", "2 , 2 x")
        assert code == 0
        assert "notation: 2,2×" in out
        assert "crosscaps: 1" in out

    def test_bad_notation_reports_position(self, capsys):
        code, _, err = invoke(capsys, "parse", "*2,1")
        assert code == 1
        assert "error:" in err
        assert "position 3" in err


class TestExpansionCommand:
    def test_json_matches_full_expansion(self, capsys):
        code, out, _ = invoke(
            capsys, "expansion", "2,3,5", "--curvature", "1", "--format", "json"
        )
        assert code == 0
        sig = parse("2,3,5")
        area = 2 * math.pi * (1 / 30)
        expected = full_expansion(sig, MetricData(Fraction(1), area)).to_json()
        got = json.loads(out)
        assert set(got) == set(expected)
        assert got["deg_0"] == expected["deg_0"]
        for key in ("deg_-1", "deg_-0.5", "deg_0.5", "deg_1"):
            assert got[key] == pytest.approx(expected[key], rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize(
        "notation, curvature", [("2,3,5", 1), ("2,2," + "7" * 250, 1), ("*2,3,7", -1)]
    )
    def test_text_is_to_text(self, capsys, notation, curvature):
        sig = parse(notation)
        area = 2 * math.pi * float(euler_characteristic(sig)) / curvature
        metric = MetricData(curvature, area, mirror_length=1.0 if sig.has_mirrors else 0.0)
        argv = ["expansion", notation, f"--curvature={curvature}", f"--area={area!r}"]
        argv += ["--mirror-length=1.0"] * sig.has_mirrors
        assert invoke(capsys, *argv) == (0, full_expansion(sig, metric).to_text() + "\n", "")

    def test_explicit_area_and_mirror_length(self, capsys):
        code, out, _ = invoke(
            capsys, "expansion", "*,*", "--curvature", "0", "--area", "1.0",
            "--mirror-length", "2.0", "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        assert got["deg_-1"] == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)
        assert got["deg_-0.5"] == pytest.approx(2.0 / (8 * math.sqrt(math.pi)), rel=1e-15)
        assert got["deg_0"] == {"num": "0", "den": "1"}

    def test_zero_chi_with_nonzero_curvature_exits_two(self, capsys):
        code, _, err = invoke(capsys, "expansion", "o", "--curvature", "1")
        assert code == 2
        assert "error:" in err

    def test_negative_default_area_exits_two(self, capsys):
        code, _, err = invoke(capsys, "expansion", "2,3,7", "--curvature", "1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "curvature, extra",
        [("1e400", ()), ("1e-400", ()), ("1e400", ("--area", "1")), ("-1e400", ("--area", "1"))],
    )
    def test_curvature_past_the_float_range_exits_one(self, capsys, curvature, extra):
        code, out, err = invoke(capsys, "expansion", "2,3,5", f"--curvature={curvature}", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("curvature", ["3e308", "1.7976931348623158e308"])
    @pytest.mark.parametrize("extra", [(), ("--area", "1")])
    def test_curvature_just_past_the_float_range_gets_one_short_line(self, capsys, curvature, extra):
        # The second decimal rounds down to the largest float, but its exact value is past it.
        code, out, err = invoke(capsys, "expansion", "2,3,5", f"--curvature={curvature}", *extra)
        assert (code, out) == (1, "")
        assert err == "error: curvature must be finite and within the float range\n"

    @pytest.mark.parametrize("notation", ["2,3,6", "2,3,5"])
    def test_exact_curvature_below_the_float_range_exits_two(self, capsys, notation):
        code, out, err = invoke(capsys, "expansion", notation, "--curvature=1e-400", "--area", "1")
        assert (code, out) == (2, "")
        assert "Gauss-Bonnet" in err and "nan" not in err
        assert err.count("\n") == 1

    def test_default_area_below_the_float_range_exits_one(self, capsys):
        # chi = 1/77...7 (400 sevens) > 0 and K = 1 agree in sign, but
        # 2 pi chi / K underflows to 0.0.
        code, out, err = invoke(capsys, "expansion", "2,2," + "7" * 400, "--curvature", "1")
        assert (code, out) == (1, "")
        assert err == "error: the area 2 pi chi / K is outside the float range\n"

    def test_default_area_from_the_exact_quotient_where_floats_underflow(self, capsys):
        # chi = K = 10^-400: both floats are 0.0, but chi / K = 1 gives V = 2 pi.
        notation = "2,2,1" + "0" * 400
        code, out, err = invoke(capsys, "expansion", notation, "--curvature", "1e-400")
        assert (code, err) == (0, "")
        explicit = invoke(
            capsys, "expansion", notation, "--curvature", "1e-400", "--area", "6.283185307179586"
        )
        assert explicit == (0, out, "")
        code, out, err = invoke(
            capsys, "expansion", notation, "--curvature", "1e-400", "--area", "1000"
        )
        assert (code, out) == (2, "")
        assert "Gauss-Bonnet" in err and "force area 6.283185307179586" in err

    @pytest.mark.parametrize("notation", ["2,3,7", "2,3,6"])
    def test_curvature_past_the_float_range_breaks_gauss_bonnet_at_chi_k_at_most_0(
        self, capsys, notation
    ):
        # chi K <= 0 leaves no area, whatever the range of K.
        code, out, err = invoke(capsys, "expansion", notation, "--curvature=1e400")
        assert (code, out) == (2, "")
        assert "Gauss-Bonnet" in err and err.count("\n") == 1

    def test_json_mirror_term_where_2_k_l_overflows(self, capsys):
        code, out, err = invoke(
            capsys, "expansion", "*2,3,5", "--curvature", "1",
            "--mirror-length", "1e308", "--format", "json",
        )
        assert (code, err) == (0, "")
        got = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert got["deg_0.5"] == 1e308 / (32 * math.sqrt(math.pi))

    @pytest.mark.parametrize("curvature, mirror_length", [("3", "1e308"), ("1e300", "1e10")])
    def test_mirror_term_where_k_l_overflows(self, capsys, curvature, mirror_length):
        # K L is past the float range, K L / (32 sqrt(pi)) is not.
        value = float(curvature) * (float(mirror_length) / (32 * math.sqrt(math.pi)))
        argv = ("expansion", "*2,3,5", "--curvature", curvature, "--mirror-length", mirror_length)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert f"deg 1/2: {value!r}" in out.splitlines()
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["deg_0.5"] == value

    def test_json_mirror_term_past_the_float_range_exits_one(self, capsys):
        code, out, err = invoke(
            capsys, "expansion", "*2,3,5", "--curvature", "1e300",
            "--mirror-length", "1e12", "--format", "json",
        )
        assert (code, out) == (1, "")
        assert err == "error: the degree 1/2 coefficient is past the float range of JSON output\n"

    def test_text_mirror_term_past_the_float_range_exits_one(self, capsys):
        # c[1/2] is a float of the metric, about 1.76e310, so text has no
        # exact value to print, unlike degree 1.
        code, out, err = invoke(
            capsys, "expansion", "*2,3,5", "--curvature", "1e300", "--mirror-length", "1e12",
        )
        assert (code, out) == (1, "")
        assert err == "error: the degree 1/2 coefficient is past the float range\n"

    def test_flat_with_nonzero_chi_admits_no_area(self, capsys):
        code, out, err = invoke(capsys, "expansion", "2,3,5", "--curvature", "0", "--area", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: area 1.0 is inconsistent with Gauss-Bonnet: "
            "chi = 1/30, K = 0: no area satisfies 2 pi chi = K V\n"
        )

    def test_flat_without_area_exits_one(self, capsys):
        code, _, err = invoke(capsys, "expansion", "o", "--curvature", "0")
        assert code == 1
        assert "--area" in err

    def test_flat_with_area_succeeds(self, capsys):
        code, out, _ = invoke(
            capsys, "expansion", "o", "--curvature", "0", "--area", "1.0",
            "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        assert got["deg_0"] == {"num": "0", "den": "1"}
        assert got["deg_1"] == 0.0

    def test_curvature_accepts_fractions(self, capsys):
        code, out, _ = invoke(
            capsys, "expansion", "2,3,5", "--curvature", "1/4", "--format", "json"
        )
        assert code == 0
        got = json.loads(out)
        assert got["deg_-1"] == pytest.approx((8 * math.pi / 30) / (4 * math.pi), rel=1e-15)

    def test_malformed_curvature_exits_one(self, capsys):
        code, _, err = invoke(capsys, "expansion", "2,3,5", "--curvature", "abc")
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--class", "pillow-negative", "--c-value", "1/0"),
            ("expansion", "2,3,5", "--curvature", "1/0"),
        ],
    )
    def test_zero_denominator_exits_one(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert "invalid Fraction value: '1/0'" in err
        assert "Traceback" not in err


class TestClassifyCommand:
    def test_spherical_pair_text(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--class", "spherical", "--pair", "*2,3,3", "3,*2"
        )
        assert code == 0
        assert out == "ByMirrorLength\n"

    def test_spherical_pair_json(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--class", "spherical", "--pair", "4x", "4*",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"verdict": "ByMirrorPresence"}

    @pytest.mark.parametrize(
        "a, b, shown",
        [
            ("2,3,7", "3,3,4", "'2,3,7' is Hyperbolic"),
            ("*2,3,7", "*2,3,7", "'*2,3,7' is Hyperbolic"),
            ("o", "o", "'o' is Euclidean"),
            ("2", "2", "'2' is BadPositive"),
        ],
    )
    def test_spherical_rejects_other_geometries(self, capsys, a, b, shown):
        code, out, err = invoke(capsys, "classify", "--class", "spherical", "--pair", a, b)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: signature {shown}, not Spherical; "
            "this comparison covers spherical orbifolds only\n"
        )

    def test_positive_zero_pair(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--class", "positive-zero", "--pair", "", "*3,3,3"
        )
        assert code == 0
        assert out == "ByMirrorPresence\n"

    def test_pillow_negative_distinguished(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--class", "pillow-negative", "--c-value", "107/12"
        )
        assert code == 0
        assert out == "Distinguished\n"

    def test_pillow_negative_json_payload(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--class", "pillow-negative", "--c-value", "107/12",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "distinguished": True,
            "negative_member": "3,3,4",
            "positive_member": None,
        }

    def test_pillow_negative_requires_c_value(self, capsys):
        code, _, err = invoke(capsys, "classify", "--class", "pillow-negative")
        assert code == 1
        assert "--c-value" in err

    def test_pair_classifiers_require_pair(self, capsys):
        code, _, err = invoke(capsys, "classify", "--class", "spherical")
        assert code == 1
        assert "--pair" in err

    def test_unknown_class_rejected(self, capsys):
        code, _, err = invoke(capsys, "classify", "--class", "everything")
        assert code == 1
        assert err != ""


class TestScanCommand:
    def test_injective_class_text(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--class", "teardrops-footballs", "--bound", "40"
        )
        assert code == 0
        assert out == "no collisions among 819 members\n"

    def test_injective_class_json(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--class", "class-c", "--bound", "30", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == []

    def test_spherical_scan_json_pairs(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--class", "spherical", "--bound", "6", "--format", "json"
        )
        assert code == 0
        pairs = json.loads(out)
        # five order-indexed triples (3 pairs each) and five cover pairs,
        # plus the tetrahedral pair; the order-15 sporadic is out of bound
        assert len(pairs) == 5 * 3 + 5 + 1
        for entry in pairs:
            assert set(entry) == {"sig_a", "sig_b", "c"}
            assert set(entry["c"]) == {"num", "den"}

    def test_spherical_scan_text_summary(self, capsys):
        code, out, _ = invoke(capsys, "scan", "--class", "spherical", "--bound", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1].endswith("members")
        assert "collision pair(s) among" in lines[-1]
        assert all(" ~ " in line for line in lines[:-1])

    def test_unknown_class_rejected(self, capsys):
        code, _, err = invoke(capsys, "scan", "--class", "wallpaper")
        assert code == 1
        assert err != ""

    def test_oversized_roster_rejected_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "scan", "--class", "pillows", "--bound", "1000000"
        )
        assert time.perf_counter() - start < 30
        assert code == 1
        assert out == ""
        assert str(SCAN_MEMBER_LIMIT) in err
        assert "pillows" in err and "1000000" in err

    def test_member_limit_is_inclusive(self, capsys, monkeypatch):
        # teardrops-footballs at bound 40 has 819 members
        argv = ("scan", "--class", "teardrops-footballs", "--bound", "40")
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 819)
        assert invoke(capsys, *argv) == (0, "no collisions among 819 members\n", "")
        monkeypatch.setattr(orbheat.classify, "SCAN_MEMBER_LIMIT", 818)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert "818" in err


class TestTraceCommand:
    def test_value_matches_library(self, capsys):
        code, out, _ = invoke(capsys, "trace", "--model", "pillowcase", "--t", "0.1")
        assert code == 0
        assert out == repr(heat_trace(FlatModel.PILLOWCASE, 0.1)) + "\n"

    def test_json_payload(self, capsys):
        code, out, _ = invoke(
            capsys, "trace", "--model", "torus", "--t", "0.25", "--format", "json"
        )
        assert code == 0
        got = json.loads(out)
        assert got["model"] == "torus"
        assert got["t"] == 0.25
        assert got["value"] == heat_trace(FlatModel.TORUS, 0.25)

    def test_unknown_model_rejected(self, capsys):
        code, _, err = invoke(capsys, "trace", "--model", "cube", "--t", "0.1")
        assert code == 1
        assert err != ""


class TestFitCommand:
    def test_json_payload_square(self, capsys):
        code, out, _ = invoke(capsys, "fit", "--model", "square", "--format", "json")
        assert code == 0
        got = json.loads(out)
        assert set(got) == {"model", "coefficients", "residual", "condition"}
        assert got["model"] == "square"
        coeffs = got["coefficients"]
        assert set(coeffs) == {"-1", "-0.5", "0"}
        assert coeffs["-1"] == pytest.approx(1.0 / (16 * math.pi), rel=1e-6)
        assert coeffs["-0.5"] == pytest.approx(1.0 / (4 * math.sqrt(math.pi)), rel=1e-6)
        assert coeffs["0"] == pytest.approx(0.25, abs=1e-6)
        assert got["condition"] > 1.0

    def test_text_mentions_each_degree(self, capsys):
        code, out, _ = invoke(capsys, "fit", "--model", "torus")
        assert code == 0
        assert "deg -1:" in out
        assert "deg -0.5:" in out
        assert "deg 0:" in out
        assert "residual:" in out


class TestVerifyCommand:
    def test_torus_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--model", "torus", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["-0.5", "-1", "0"]
        for record in report.values():
            assert set(record) == {"fitted", "predicted", "abs_err", "rel_err"}
        assert report["-1"]["rel_err"] < 1e-9

    def test_text_lines(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--model", "mirror-torus")
        assert code == 0
        assert out.count("deg ") == 3
        assert "fitted=" in out and "predicted=" in out


class TestTablesCommand:
    def test_table_one_clean(self, capsys):
        code, out, _ = invoke(capsys, "tables", "--which", "1")
        assert code == 0
        assert out == "table 1: all entries match\n"

    def test_table_two_clean_json(self, capsys):
        code, out, _ = invoke(capsys, "tables", "--which", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == []

    def test_corrupted_table_exits_three(self, capsys, monkeypatch):
        doctored = (("2,3,5", Fraction(1, 2)),) + tuple(orbheat.tables.TABLE1_FIXED[1:])
        monkeypatch.setattr(orbheat.tables, "TABLE1_FIXED", doctored)
        code, out, _ = invoke(capsys, "tables", "--which", "1", "--format", "json")
        assert code == 3
        report = json.loads(out)
        assert len(report) == 1
        assert report[0]["notation"] == "2,3,5"

    def test_which_is_validated(self, capsys):
        code, _, err = invoke(capsys, "tables", "--which", "3")
        assert code == 1
        assert err != ""


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1
        assert err != ""

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert err != ""

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "chi", "o", "--frobnicate")
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("expansion", "2,3,7"), "--curvature", "-1/4"),
            (("expansion", "2,3,7"), "--curvature", "-1e-3"),
            (("expansion", "2,3,7", "--area", "1"), "--curvature", "-1E+2"),
            (("expansion", "2,3,5", "--area", "1"), "--curvature", "-1e400"),
            (("classify", "--class", "pillow-negative"), "--c-value", "-7/2"),
            (("trace", "--model", "torus"), "--t", "-1e-3"),
            (("expansion", "2,3,7", "--curvature", "-1/4"), "--area", "-inf"),
            (("expansion", "2,3,7"), "--curvature", "-Infinity"),
            (("expansion", "2,3,7", "--curvature", "1"), "--mirror-length", "-INF"),
            (("trace", "--model", "torus"), "--t", "-nan"),
            (("trace", "--model", "torus"), "--t", "-NaN"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_value_reads_as_its_equals_twin(self, capsys, argv, flag, value, fmt):
        # argparse alone reads "-1/4", "-1e-3" and "-inf" as options and
        # exits 1 with "expected one argument".
        spaced = invoke(capsys, *argv, flag, value, "--format", fmt)
        assert spaced == invoke(capsys, *argv, f"{flag}={value}", "--format", fmt)
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize("value", ["-x", "-1/", "-1e", "-/4"])
    def test_a_dash_word_that_is_no_number_is_still_an_option(self, capsys, value):
        code, out, err = invoke(capsys, "expansion", "2,3,7", "--curvature", value)
        assert (code, out) == (1, "")
        assert "argument --curvature: expected one argument" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "orbheat" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "trace", "--help")
        assert code == 0
        assert "--model" in out


def checkout_env():
    """The environment with this checkout's orbheat first on the path."""
    src = str(Path(orbheat.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_python(*args):
    """Run a fresh interpreter with this checkout's orbheat on its path."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=checkout_env(), timeout=60
    )


@pytest.mark.parametrize("module", ["orbheat", "orbheat.cli"])
def test_module_entry_points(module):
    result = run_python("-m", module, "c", "2,3,5")
    assert (result.returncode, result.stdout, result.stderr) == (0, "271/30\n", "")


def test_a_closed_output_pipe_exits_1_without_a_traceback():
    # This scan's JSON, about 230 kB, outgrows the pipe's buffer, so the
    # process is still writing when the reader closes its end.
    argv = ["-m", "orbheat", "scan", "--class", "spherical", "--bound", "500", "--format", "json"]
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env()
    ) as proc:
        assert proc.stdout.read(10) == b'[\n  {\n    '
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")


# The orbheat modules each subcommand loads.  Every subcommand loads the
# package, cli, signature and _record (the base of signature's records).
_BASE = {"orbheat", "orbheat.cli", "orbheat._record", "orbheat.signature"}
_NOTATION = _BASE | {"orbheat.notation"}
_HEAT = _NOTATION | {"orbheat.heat"}
_CLASSIFY = _NOTATION | {"orbheat.classify"}
_FLAT = _BASE | {"orbheat.flat"}
_FIT = _FLAT | {"orbheat._lstsq"}
FOOTPRINTS = [
    (["parse", "2,3,5"], _NOTATION),
    (["parse", "*2,1"], _NOTATION),
    (["chi", "2,3,5"], _NOTATION),
    (["c", "2,3,5"], _NOTATION),
    (["c", "2,3,5", "--format", "json"], _NOTATION),
    (["expansion", "2,3,5", "--curvature", "1"], _HEAT),
    (["expansion", "2,3,5", "--curvature", "1", "--area", "3"], _HEAT),
    (["classify", "--class", "spherical", "--pair", "2,2,2", "*2,2,2"], _CLASSIFY),
    (["classify", "--class", "pillow-negative", "--c-value", "67/4"], _CLASSIFY),
    (["scan", "--class", "pillows", "--bound", "5"], _CLASSIFY),
    (["trace", "--model", "klein", "--t", "0.1"], _FLAT),
    (["fit", "--model", "torus"], _FIT),
    (["verify", "--model", "torus"], _FIT | {"orbheat.heat"}),
    (["tables", "--which", "1"], _NOTATION | {"orbheat.tables"}),
    (["trace", "--model", "bogus", "--t", "0.1"], {"orbheat", "orbheat.cli"}),
    (["scan", "--class", "bogus"], {"orbheat", "orbheat.cli"}),
]


@pytest.mark.parametrize(
    "argv, modules", FOOTPRINTS, ids=[" ".join(argv) for argv, _ in FOOTPRINTS]
)
def test_subcommand_import_footprint(argv, modules):
    # Module sets only, never times, so this cannot flake on a slow machine.
    code = (
        "import sys, io, contextlib\n"
        "from orbheat.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    run(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('orbheat', 'numpy', 'dataclasses', 'inspect'))\n"
        "print(*(m for m in loaded if not m.startswith('numpy.')))\n"
    )
    result = run_python("-c", code, *argv)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {m for m in loaded if m.startswith("orbheat")} == modules
    # No subcommand loads numpy, or inspect, which numpy would bring.
    assert "numpy" not in loaded
    assert "inspect" not in loaded
    assert "dataclasses" not in loaded


def test_classify_module_loads_neither_flat_nor_tables():
    code = "import sys, orbheat.classify; print(*sorted(m for m in sys.modules if m.startswith('orbheat')))"
    result = run_python("-c", code)
    assert result.stdout.split() == [
        "orbheat",
        "orbheat._record",
        "orbheat.classify",
        "orbheat.notation",
        "orbheat.signature",
    ]


def test_choice_names_match_the_enums():
    # cli writes the names out so that building its parser imports neither module.
    from orbheat.classify import ClassKind

    assert orbheat.cli._MODEL_NAMES == tuple(m.value for m in FlatModel)
    assert orbheat.cli._CLASS_NAMES == tuple(k.value for k in ClassKind)


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["trace", "--model", "bogus", "--t", "1"],
            "usage: orbheat trace [-h] [--format {json,text}] --model\n"
            "                     {torus,klein,pillowcase,square,mirror-torus} --t T\n"
            "orbheat trace: error: argument --model: invalid choice: 'bogus' "
            "(choose from 'torus', 'klein', 'pillowcase', 'square', 'mirror-torus')\n",
        ),
        (
            ["scan", "--class", "bogus"],
            "usage: orbheat scan [-h] [--format {json,text}] --class\n"
            "                    {teardrops-footballs,pillows,class-c,spherical}\n"
            "                    [--bound BOUND]\n"
            "orbheat scan: error: argument --class: invalid choice: 'bogus' "
            "(choose from 'teardrops-footballs', 'pillows', 'class-c', 'spherical')\n",
        ),
    ],
)
def test_bad_choice_usage_error_text(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("t", ["1e-300", "1e308"])
def test_trace_at_extreme_t_is_fast(t):
    start = time.perf_counter()
    result = run_python("-m", "orbheat", "trace", "--model", "klein", "--t", t)
    assert time.perf_counter() - start < 2.0
    assert (result.returncode, result.stderr) == (0, "")
    value = float(result.stdout)
    assert math.isfinite(value) and value > 0


def test_trace_past_float_range_exits_one_quickly():
    # At t = 5e-324 the Klein trace is about 8e321, beyond the largest float
    start = time.perf_counter()
    result = run_python("-m", "orbheat", "trace", "--model", "klein", "--t", "5e-324")
    assert time.perf_counter() - start < 2.0
    assert (result.returncode, result.stdout) == (1, "")
    assert "largest float" in result.stderr


def test_pillow_negative_at_large_c_is_fast():
    start = time.perf_counter()
    result = run_python(
        "-m", "orbheat", "classify", "--class", "pillow-negative",
        "--c-value", "8001/2", "--format", "json",
    )
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "distinguished": True,
        "negative_member": None,
        "positive_member": None,
    }


def test_pillow_negative_oversized_search_exits_one_quickly():
    # h = 1e-7 would leave 10^7 first orders to try
    start = time.perf_counter()
    result = run_python(
        "-m", "orbheat", "classify", "--class", "pillow-negative",
        "--c-value", "600000000000001/10000000",
    )
    assert time.perf_counter() - start < 2.0
    assert (result.returncode, result.stdout) == (1, "")
    assert "1000000" in result.stderr


def test_classify_module_adds_only_the_fraction_stack():
    # Every process compiles classify from source, so what it imports is
    # start-up time; these are the modules it adds beyond the package.
    code = (
        "import sys, orbheat\n"
        "before = set(sys.modules)\n"
        "import orbheat.classify\n"
        "print(*sorted(m for m in set(sys.modules) - before if not m.startswith('orbheat')))\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["__future__", "_decimal", "decimal", "fractions", "numbers"]
