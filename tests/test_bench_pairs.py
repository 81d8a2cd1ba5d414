"""tools/bench_pairs.py's verdict on paired runs, on synthetic values."""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]

# Ten parent runs with median 104.5 and interquartile range 4.5.
PARENT = [100.0 + i for i in range(10)]


def compare(change, better="lower", bound=0.25, parent=PARENT):
    return bench_pairs.compare(parent, change, better, bound)


def test_median_delta_and_parent_iqr():
    result = compare([p - 10.0 for p in PARENT])
    assert result["median_delta"] == -10.0
    assert result["parent_iqr"] == 4.5
    assert result["change_better_pairs"] == 10


@pytest.mark.parametrize("better, shift", [("lower", -10.0), ("higher", 10.0)])
def test_gain_in_every_pair_beyond_the_parent_spread(better, shift):
    assert compare([p + shift for p in PARENT], better)["verdict"] == "gain"


def test_gain_needs_nine_of_ten_pairs():
    change = [p - 10.0 for p in PARENT]
    change[0] = change[1] = 200.0  # two lost pairs; the median still moves by 10
    result = compare(change)
    assert result["change_better_pairs"] == 8
    assert result["median_delta"] < -result["parent_iqr"]
    assert result["verdict"] == "no_regression"
    change[1] = PARENT[1]  # a tie counts for neither side
    assert compare(change)["change_better_pairs"] == 8
    change[1] = PARENT[1] - 10.0
    assert compare(change)["verdict"] == "gain"


def test_gain_needs_the_median_to_move_more_than_the_parent_iqr():
    result = compare([p - 4.5 for p in PARENT])
    assert result["change_better_pairs"] == 10
    assert result["median_delta"] == -result["parent_iqr"]
    assert result["verdict"] == "no_regression"


@pytest.mark.parametrize("better, sign", [("lower", 1.0), ("higher", -1.0)])
def test_regression_is_a_median_worse_than_the_bound(better, sign):
    # bound 0.25 of the parent median 104.5 allows a move of 26.125.
    assert compare([p + sign * 26.0 for p in PARENT], better)["verdict"] == "no_regression"
    assert compare([p + sign * 26.5 for p in PARENT], better)["verdict"] == "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    # Parent median 104.5, interquartile range 4.5: wider than 0.01 of the median.
    assert compare(PARENT, bound=0.01)["verdict"] == "unresolved"
    assert compare(PARENT, bound=0.05)["verdict"] == "no_regression"


def test_wide_spread_resolves_when_every_change_run_beats_every_parent_run():
    # Median 105 and interquartile range 10: a change to 99 is no gain.
    parent = [100.0] * 5 + [110.0] * 5
    result = compare([99.0] * 10, bound=0.01, parent=parent)
    assert (result["change_better_pairs"], result["verdict"]) == (10, "no_regression")
    assert compare([99.0] * 9 + [100.0], bound=0.01, parent=parent)["verdict"] == "unresolved"


def test_identical_ratios_are_no_regression():
    ones = [1.0] * 10
    result = compare(ones, "higher", 0.01, parent=ones)
    assert result == {
        "change_better_pairs": 0, "median_delta": 0.0, "parent_iqr": 0.0, "verdict": "no_regression",
    }
    assert compare([1.0] * 9 + [0.0], "higher", 0.01, parent=ones)["verdict"] == "no_regression"
    assert compare([0.98] * 10, "higher", 0.01, parent=ones)["verdict"] == "regression"


def test_pair_ratio_is_per_pair_change_over_parent():
    # Both sides drift together, so the ratios spread less than either side.
    change = [0.9 * p for p in PARENT]
    result = bench_pairs.pair_ratio(PARENT, change)
    assert result["median"] == pytest.approx(0.9)
    assert result["iqr"] == pytest.approx(0.0)
    assert result["values"] == [c / p for p, c in zip(PARENT, change)]
    # A pair whose parent reads 0 has no ratio; fewer than two ratios, no quartiles.
    assert bench_pairs.pair_ratio([0.0, 2.0, 4.0], [1.0, 3.0, 6.0])["median"] == 1.5
    assert bench_pairs.pair_ratio([0.0, 2.0], [1.0, 3.0]) is None


@pytest.mark.parametrize("pairs, accepted", [("0", False), ("1", False), ("2", True)])
def test_fewer_than_two_pairs_exit_before_any_run(monkeypatch, capsys, pairs, accepted):
    class Extracted(Exception):
        pass

    def extract(rev, into):
        raise Extracted

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--out", "unused.json", "--pairs", pairs]
    if accepted:
        with pytest.raises(Extracted):
            bench_pairs.main(argv)
    else:
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
        assert exit_info.value.code == 2
        assert "need at least 2 pairs" in capsys.readouterr().err


def test_main_reads_the_benchmark_from_the_repository_root(monkeypatch, tmp_path):
    calls = []

    def run_pairs(args, sides, commits, workloads, seconds, declared):
        assert commits["parent"] == commits["change"]
        calls.append((workloads, seconds, sorted(declared)))
        return {"workloads": {}}

    monkeypatch.chdir(ROOT / "tests")
    monkeypatch.setattr(bench_pairs, "run_pairs", run_pairs)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", str(out)]) == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert calls == [(
        [w["name"] for w in declared["workloads"]],
        declared["run_seconds"],
        sorted(m["name"] for m in declared["end_to_end"]),
    )]
    assert json.loads(out.read_text()) == {"workloads": {}}


def test_extract_runs_git_at_the_repository_root(monkeypatch, tmp_path):
    # From a subdirectory, `git archive` would write that subdirectory's tree only.
    calls = []

    def run(argv, cwd=None, **kwargs):
        calls.append((argv[:2], cwd))
        return types.SimpleNamespace(stdout="abc123\n" if argv[1] == "rev-parse" else b"")

    monkeypatch.chdir(ROOT / "tests")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.extract("HEAD", tmp_path / "tree") == "abc123"
    assert calls[:2] == [(["git", "rev-parse"], ROOT), (["git", "archive"], ROOT)]


def test_trees_extracts_both_sides_and_removes_them_on_exit(monkeypatch):
    extracted = []

    def extract(rev, into):
        into.mkdir(parents=True)
        extracted.append((rev, into.name))
        return f"sha-{rev}"

    monkeypatch.setattr(bench_pairs, "extract", extract)
    with pytest.raises(KeyError):
        with bench_pairs.trees("p", "c") as (paths, commits):
            assert extracted == [("p", "parent"), ("c", "change")]
            assert commits == {"parent": "sha-p", "change": "sha-c"}
            assert paths["parent"].parent == paths["change"].parent
            assert all(path.is_dir() for path in paths.values())
            raise KeyError("the body failed")
    assert not paths["parent"].parent.exists()


RUN_STDOUT = """environment: {"python": "3.11.7", "src_sha256": "abc"}
workload spectra: 3 ops, 0 failed
op_p50_ms: 0.3 ms (n=3)
peak_rss_mb: 26.5 MB (highest ru_maxrss of the op processes; the benchmark process, whose RSS is their floor, peaked at 26.4 MB)
  oracle: p50 0.512 ms (n=1)
  trace: p50 0.021 ms (n=1)
  verify: p50 0.300 ms (n=1)
note: trace: p50 is not a kind line without its indent
result file: bench/out/result.json
{"metrics": {"op_p50_ms": {"unit": "ms", "value": 0.3}}, "failed": 0}
"""


def test_run_once_keeps_the_per_kind_lines(monkeypatch, tmp_path):
    def run(argv, cwd=None, **kwargs):
        return types.SimpleNamespace(returncode=0, stdout=RUN_STDOUT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result, env, kinds, floor = bench_pairs.run_once(tmp_path, "spectra", 1, 20)
    assert floor == 26.4
    assert result == {"metrics": {"op_p50_ms": {"unit": "ms", "value": 0.3}}, "failed": 0}
    assert env == {"python": "3.11.7", "src_sha256": "abc"}
    assert kinds == {
        "oracle": {"p50_ms": 0.512, "n": 1},
        "trace": {"p50_ms": 0.021, "n": 1},
        "verify": {"p50_ms": 0.3, "n": 1},
    }


def test_report_holds_each_run_per_kind_medians(monkeypatch, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        value = 1.0 if checkout.name == "parent" else 0.5
        result = {"metrics": {"op_p50_ms": {"unit": "ms", "value": value}}, "failed": 0}
        return result, {}, {"verify": {"p50_ms": value + seed, "n": 2}}, 20.0 + seed

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = types.SimpleNamespace(pairs=2, seed0=10)
    sides = {side: tmp_path / side for side in ("parent", "change")}
    declared = {"op_p50_ms": {"better": "lower", "bound": 0.25}}
    report = bench_pairs.run_pairs(args, sides, {"parent": "p", "change": "c"}, ["spectra"], 20, declared)
    assert report["commits"] == {"parent": "p", "change": "c"}
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11)]
    assert report["workloads"]["spectra"]["op_kinds"] == {
        "parent": [{"verify": {"p50_ms": 11.0, "n": 2}}, {"verify": {"p50_ms": 12.0, "n": 2}}],
        "change": [{"verify": {"p50_ms": 10.5, "n": 2}}, {"verify": {"p50_ms": 11.5, "n": 2}}],
    }
    assert report["workloads"]["spectra"]["floor_rss_mb"] == {
        "parent": [30.0, 31.0], "change": [30.0, 31.0],
    }
    assert report["workloads"]["spectra"]["metrics"]["op_p50_ms"]["pair_ratio"]["values"] == [0.5, 0.5]
