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

import orbheat.cli
import orbheat.tables
from orbheat.cli import SCAN_MEMBER_LIMIT, run
from orbheat.flat import FlatModel, heat_trace
from orbheat.heat import MetricData, full_expansion
from orbheat.notation import parse
from orbheat.signature import signature_to_json


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
        monkeypatch.setattr(orbheat.cli, "SCAN_MEMBER_LIMIT", 819)
        assert invoke(capsys, *argv) == (0, "no collisions among 819 members\n", "")
        monkeypatch.setattr(orbheat.cli, "SCAN_MEMBER_LIMIT", 818)
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

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "orbheat" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "trace", "--help")
        assert code == 0
        assert "--model" in out


def run_python(*args):
    """Run a fresh interpreter with this checkout's orbheat on its path."""
    src = str(Path(orbheat.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("module", ["orbheat", "orbheat.cli"])
def test_module_entry_points(module):
    result = run_python("-m", module, "c", "2,3,5")
    assert (result.returncode, result.stdout, result.stderr) == (0, "271/30\n", "")


def test_c_does_not_import_numpy():
    code = (
        "import sys, orbheat.cli; code = orbheat.cli.run(['c', '2,3,5']); "
        "print(code, 'numpy' in sys.modules)"
    )
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "271/30\n0 False\n")


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
