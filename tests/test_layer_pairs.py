"""tools/layer_pairs.py: two trees in one process, and the per-layer report."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import layer_pairs

ROOT = Path(__file__).resolve().parents[1]


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
    assert list(a) == ["fit_expansion", "verify_model", "heat_trace", "collision_groups", "brute_force_trace"]
    fits_a, fits_b = a["fit_expansion"](), b["fit_expansion"]()
    assert len(fits_a) == 10
    assert [f.coefficients for f in fits_a] == [f.coefficients for f in fits_b]
    assert a["verify_model"]() == b["verify_model"]()
    assert len(a["heat_trace"]()) == 5 * 303
    assert len(a["collision_groups"]()) > 0
    traces = a["brute_force_trace"]()
    assert len(traces) == 5 * 3
    assert traces == b["brute_force_trace"]()


def run_fake_pairs(monkeypatch, seconds, raising=()):
    """run_pairs over layers whose pair-i time on each side is seconds[layer][side][i].

    A (layer, side) in `raising` raises a TypeError on every call.  Returns
    the report, the skipped layers and the sides in the order they were
    timed.
    """
    times = {(layer, side): iter(values) for layer, by_side in seconds.items()
             for side, values in by_side.items()}
    timed = []

    def call(layer, side):
        if (layer, side) in raising:
            raise TypeError(f"{layer}() missing 1 required positional argument: 'degrees'")
        return layer, side

    def layers(name, seed):
        side = name.removeprefix("orbheat_")
        return {layer: (lambda layer=layer: call(layer, side)) for layer in seconds}

    def best_time(call):
        timed.append(call()[1])
        return next(times[call()])

    monkeypatch.setattr(layer_pairs, "layers", layers)
    monkeypatch.setattr(layer_pairs, "best_time", best_time)
    packages = {side: f"orbheat_{side}" for side in layer_pairs.SIDES}
    pairs = len(next(iter(seconds.values()))["parent"])
    return *layer_pairs.run_pairs(packages, pairs, 31), timed


def test_recorded_seconds_read_the_recorded_verdicts(monkeypatch):
    # BENCH_31_layers.json, timed with an earlier null side: its change
    # against its parent, and its null side (a second load of the change)
    # against the change.
    recorded = json.loads((ROOT / "BENCH_31_layers.json").read_text())["layers"]
    change = {layer: {side: entry["seconds"][side] for side in ("parent", "change")}
              for layer, entry in recorded.items()}
    report, _, _ = run_fake_pairs(monkeypatch, change)
    assert {layer: entry["verdict"] for layer, entry in report.items()} == {
        "fit_expansion": "gain", "verify_model": "gain",
        "heat_trace": "no_regression", "collision_groups": "no_regression",
    }
    fit = report["fit_expansion"]
    assert fit["change_better_pairs"] == 21
    assert fit["median_delta"] / fit["parent"]["median"] == pytest.approx(-0.496, abs=5e-4)
    assert report["verify_model"]["change_better_pairs"] == 21
    assert report["verify_model"]["median_delta"] / report["verify_model"]["parent"]["median"] == (
        pytest.approx(-0.393, abs=5e-4))
    null = {layer: {"parent": entry["seconds"]["change"], "change": entry["seconds"]["null"]}
            for layer, entry in recorded.items()}
    report, _, _ = run_fake_pairs(monkeypatch, null)
    assert {entry["verdict"] for entry in report.values()} == {"no_regression"}


def test_a_slowdown_in_twenty_of_twenty_one_pairs_is_a_regression(monkeypatch):
    # Shaped like spherical@500 collision_groups at b3e14ad -> 3177cb6:
    # 20 of 21 pairs slower and the median 25% up.
    parent = [0.030 + 0.0003 * i for i in range(21)]
    change = [1.25 * p for p in parent]
    change[17] = 0.020
    report, _, _ = run_fake_pairs(monkeypatch, {"collision_groups": {"parent": parent, "change": change}})
    entry = report["collision_groups"]
    assert entry["change_better_pairs"] == 1
    assert entry["pair_ratio"]["median"] == pytest.approx(1.25)
    assert entry["verdict"] == "regression"


def test_identical_series_are_no_regression(monkeypatch):
    series = [1.0, 3.0, 2.0, 2.5, 1.5]
    report, _, timed = run_fake_pairs(monkeypatch, {"fit_expansion": {"parent": series, "change": series}})
    entry = report["fit_expansion"]
    assert entry["seconds"] == {"parent": series, "change": series}
    assert entry["pair_ratio"]["values"] == [1.0] * 5
    assert entry["change_better_pairs"] == 0
    # The parent's interquartile range over its median: 1.0 / 2.0.
    assert entry["bound"] == pytest.approx(0.5)
    assert entry["verdict"] == "no_regression"
    # The parent runs first in even pairs, the change first in odd ones.
    assert timed == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]


def test_a_layer_that_raises_on_one_side_is_skipped_and_named(monkeypatch, capsys):
    # As fit_expansion at b3e14ad, which still took the degrees to fit.
    series = [1.0, 3.0, 2.0]
    seconds = {layer: {"parent": series, "change": series} for layer in ("fit_expansion", "heat_trace")}
    report, skipped, timed = run_fake_pairs(monkeypatch, seconds, raising={("fit_expansion", "parent")})
    error = "TypeError: fit_expansion() missing 1 required positional argument: 'degrees'"
    assert skipped == {"fit_expansion": {"parent": error}}
    assert list(report) == ["heat_trace"]
    assert report["heat_trace"]["verdict"] == "no_regression"
    assert len(timed) == 2 * len(series)  # heat_trace alone, once per side and pair
    err = capsys.readouterr().err
    assert "fit_expansion: skipped, the parent side raised" in err
    assert err.rstrip().endswith(error)  # the traceback's last line


def test_main_extracts_both_commits_and_writes_the_report(monkeypatch, tmp_path, capsys):
    runs = []
    entry = {"bound": 0.25, **layer_pairs.judge([2.0, 2.0], [1.0, 2.0], "lower", 0.25)}
    skipped = {"heat_trace": {"change": "ValueError: no such model"}}

    def run_pairs(packages, pairs, seed):
        runs.append((sorted(packages.values()), pairs, seed))
        return {"fit_expansion": entry}, skipped

    def load(tree, name):
        assert (tree / "src" / "orbheat" / "_lstsq.py").is_file()

    monkeypatch.chdir(ROOT / "tests")
    monkeypatch.setattr(layer_pairs, "run_pairs", run_pairs)
    monkeypatch.setattr(layer_pairs, "load", load)
    out = tmp_path / "layers.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--out", str(out), "--pairs", "3"]
    assert layer_pairs.main(argv) == 0
    assert runs == [(["orbheat_change", "orbheat_parent"], 3, 31)]
    report = json.loads(out.read_text())
    assert report["commits"]["parent"] == report["commits"]["change"]
    assert (report["pairs"], report["repeats"]) == (3, 5)
    assert report["layers"]["fit_expansion"]["pair_ratio"]["values"] == [0.5, 1.0]
    assert report["skipped"] == skipped
    assert capsys.readouterr().err.startswith("fit_expansion: no_regression, change/parent median 0.750")


def test_fewer_than_two_pairs_are_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        layer_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--out", "x.json", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "need at least 2 pairs" in capsys.readouterr().err
