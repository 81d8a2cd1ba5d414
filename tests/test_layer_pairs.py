"""tools/layer_pairs.py: two trees in one process, and the per-layer report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # layer_pairs imports bench_pairs beside it

import layer_pairs  # noqa: E402


@pytest.fixture
def two_loads():
    """The package under src/ loaded twice, as orbheat_a and orbheat_b; unloaded after."""
    packages = [layer_pairs.load(ROOT, name) for name in ("orbheat_a", "orbheat_b")]
    yield packages
    for name in [m for m in sys.modules if m.split(".")[0] in ("orbheat_a", "orbheat_b")]:
        del sys.modules[name]


def loaded(name):
    return {m: module for m, module in sys.modules.items() if m.split(".")[0] == name}


def test_loaded_trees_share_no_module_objects(two_loads):
    calls = [layer_pairs.layers(p.__name__, 31) for p in two_loads]
    for side in calls:
        side["fit_expansion"]()  # fit_expansion imports _lstsq lazily
    a, b = loaded("orbheat_a"), loaded("orbheat_b")
    assert {m.split(".", 1)[-1] for m in a} >= {"orbheat_a", "flat", "classify", "_lstsq"}
    assert not set(map(id, a.values())) & set(map(id, b.values()))
    assert a["orbheat_a.flat"].FlatModel is not b["orbheat_b.flat"].FlatModel
    assert a["orbheat_a.flat"].fit_expansion.__module__ == "orbheat_a.flat"
    # Each fit ran on its own tree's solver.
    assert a["orbheat_a._lstsq"] is not b["orbheat_b._lstsq"]


def test_each_layer_runs_one_pass_on_the_same_inputs(two_loads):
    a, b = (layer_pairs.layers(p.__name__, 31) for p in two_loads)
    assert list(a) == ["fit_expansion", "verify_model", "heat_trace", "collision_groups"]
    fits_a, fits_b = a["fit_expansion"](), b["fit_expansion"]()
    assert len(fits_a) == 10
    assert [f.coefficients for f in fits_a] == [f.coefficients for f in fits_b]
    assert a["verify_model"]() == b["verify_model"]()
    assert len(a["heat_trace"]()) == 5 * 14
    assert len(a["collision_groups"]()) > 0


def test_summary_reads_ratios_and_wins():
    result = layer_pairs.summary([1.0, 3.0, 2.0], [2.0, 2.0, 2.0])
    assert result["values"] == [0.5, 1.5, 1.0]
    assert (result["median"], result["faster_pairs"]) == (1.0, 1)


def run_fake_pairs(monkeypatch, seconds):
    """run_pairs over one layer whose pair-i time on each side is seconds[side][i]."""
    times = {side: iter(values) for side, values in seconds.items()}
    monkeypatch.setattr(layer_pairs, "layers", lambda name, seed: {"fit_expansion": lambda: name})
    monkeypatch.setattr(layer_pairs, "best_time", lambda call: next(times[call().split("_")[1]]))
    packages = {side: f"orbheat_{side}" for side in layer_pairs.SIDES}
    return layer_pairs.run_pairs(packages, 3, 31)["fit_expansion"]


def test_run_pairs_reports_ratios_against_the_null_side(monkeypatch):
    report = run_fake_pairs(monkeypatch, {
        "parent": [2.0, 2.0, 2.0], "change": [1.0, 1.0, 1.0], "null": [0.9, 1.1, 1.0],
    })
    assert report["seconds"]["change"] == [1.0, 1.0, 1.0]
    assert report["ratio"]["values"] == [0.5] * 3
    assert report["ratio"]["faster_pairs"] == 3
    assert report["null_ratio"]["values"] == [0.9, 1.1, 1.0]
    assert report["within_null_spread"] is False


def test_a_ratio_between_the_null_extremes_is_within_the_null_spread(monkeypatch):
    report = run_fake_pairs(monkeypatch, {
        "parent": [1.0, 1.0, 1.0], "change": [1.05, 0.95, 1.0], "null": [1.05, 1.045, 0.9],
    })
    assert report["ratio"]["median"] == 1.0
    assert report["ratio"]["faster_pairs"] == 1
    assert report["within_null_spread"] is True


def test_main_extracts_both_commits_and_writes_the_report(monkeypatch, tmp_path):
    runs = []
    summary = layer_pairs.summary([1.0, 2.0], [2.0, 2.0])

    def run_pairs(packages, pairs, seed):
        runs.append((sorted(packages.values()), pairs, seed))
        return {"fit_expansion": {"ratio": summary, "null_ratio": summary}}

    def load(tree, name):
        assert (tree / "src" / "orbheat" / "_lstsq.py").is_file()

    monkeypatch.chdir(ROOT / "tests")
    monkeypatch.setattr(layer_pairs, "run_pairs", run_pairs)
    monkeypatch.setattr(layer_pairs, "load", load)
    out = tmp_path / "layers.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--out", str(out), "--pairs", "3"]
    assert layer_pairs.main(argv) == 0
    assert runs == [(["orbheat_change", "orbheat_null", "orbheat_parent"], 3, 31)]
    report = json.loads(out.read_text())
    assert report["commits"]["parent"] == report["commits"]["change"]
    assert (report["pairs"], report["repeats"]) == (3, 5)
    assert report["layers"]["fit_expansion"]["ratio"]["values"] == [0.5, 1.0]


def test_fewer_than_two_pairs_are_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        layer_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", "x.json", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "need at least 2 pairs" in capsys.readouterr().err
