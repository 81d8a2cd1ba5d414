"""tools/expansion_diff.py on a tree against itself."""

from __future__ import annotations

import contextlib
import shutil
from pathlib import Path

import bench_pairs
import expansion_diff

ROOT = Path(__file__).resolve().parents[1]


def test_argv_set_is_the_documented_product():
    groups = expansion_diff.argv_set()
    sizes = {
        "expansion": 17 * 16 * 5 * 4 * 2,
        "topological": (3 * 17 + 2 * 12 * 12 + 16 + 4 * 3 + 4 + 2 + 2) * 2,
        "flat models": (5 * 5 + 2 * 5) * 2,
        "negative values": 9 * 2,
    }
    assert {name: len(argvs) for name, argvs in groups.items()} == sizes
    assert list(groups) == list(sizes)  # the run order: expansion first
    assert list(sizes.values()) == [10_880, 750, 70, 18]
    argvs = [tuple(argv) for group in groups.values() for argv in group]
    assert len(set(argvs)) == len(argvs) == 11_718
    assert {argv[0] for argv in groups["expansion"]} == {"expansion"}
    assert ["expansion", "*2,3,5", "--curvature=1e300", "--format=json",
            "--mirror-length=1e10"] in groups["expansion"]


def test_argv_set_covers_the_topological_subcommands():
    argvs = expansion_diff.argv_set()["topological"]
    commands = {argv[0] for argv in argvs}
    assert commands == {"parse", "chi", "c", "classify", "scan", "tables"}
    assert ["classify", "--class=positive-zero", "--pair", "3*", "*3,3", "--format=json"] in argvs
    assert ["scan", "--class=pillows", "--bound=60", "--format=text"] in argvs
    assert ["scan", "--class=spherical", "--bound=500", "--format=json"] in argvs
    assert ["scan", "--class=pillows", "--bound=100", "--format=text"] in argvs
    assert ["scan", "--class=pillows", "--bound=200", "--format=json"] in argvs
    assert ["scan", "--class=spherical", "--bound=150000", "--format=text"] in argvs
    assert ["scan", "--class=spherical", "--bound=150000", "--format=json"] in argvs


def test_argv_set_covers_the_flat_models_and_negative_values():
    groups = expansion_diff.argv_set()
    flat, negative = groups["flat models"], groups["negative values"]
    assert {argv[0] for argv in flat} == {"trace", "fit", "verify"}
    assert {argv[0] for argv in negative} == {"expansion", "trace", "classify"}
    assert ["trace", "--model=klein", "--t=1e-300", "--format=json"] in flat
    assert ["verify", "--model=mirror-torus", "--format=text"] in flat
    assert ["trace", "--model=torus", "--t", "-nan", "--format=json"] in negative
    assert ["expansion", "o", "--curvature=0", "--area=1", "--mirror-length", "-0.0",
            "--format=text"] in negative
    assert list(groups)[-1] == "negative values"
    assert negative[-2:] == [
        ["classify", "--class=pillow-negative", "--c-value", "-7/2", f"--format={fmt}"]
        for fmt in ("text", "json")
    ]


def test_a_tree_against_itself_differs_nowhere(monkeypatch, capsys):
    extracted = []

    def extract(rev, into):
        # The working tree's package, so that no commit or git is needed.
        extracted.append(rev)
        shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return rev

    monkeypatch.setattr(bench_pairs, "extract", extract)
    assert expansion_diff.main(["--parent", "HEAD", "--change", "HEAD"]) == 0
    assert extracted == ["HEAD", "HEAD"]
    assert capsys.readouterr().out == "0 of 11718 argv differ\n"


def test_a_differing_run_is_printed_with_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(
        expansion_diff, "argv_set", lambda: {"topological": [["c", "2,3,5"], ["chi", "2,3,5"]]}
    )
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: into.mkdir())
    monkeypatch.setattr(expansion_diff, "start", lambda tree, argvs: contextlib.nullcontext(tree.name))
    outputs = {
        "parent": [(0, "271/30\n", ""), (0, "1/30\n", "")],
        "change": [(0, "271/30\n", ""), (1, "", "error: x\n")],
    }
    monkeypatch.setattr(expansion_diff, "results", outputs.get)
    assert expansion_diff.main(["--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().out == (
        "[topological] orbheat 'chi' '2,3,5'\n"
        "  parent: (0, '1/30\\n', '')\n"
        "  change: (1, '', 'error: x\\n')\n"
        "1 of 2 argv differ\n"
    )
