"""tools/expansion_diff.py on a tree against itself."""

from __future__ import annotations

import contextlib
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # expansion_diff imports bench_pairs beside it

import expansion_diff  # noqa: E402


def test_argv_set_is_the_documented_product():
    argvs = expansion_diff.argv_set()
    topological = 3 * 17 + 2 * 12 * 12 + 16 + 4 * 3 + 4 + 2
    flat_and_negative = 5 * 5 + 2 * 5 + 8
    assert len(argvs) == 17 * 16 * 5 * 4 * 2 + (topological + flat_and_negative) * 2 == 11_712
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    assert ["expansion", "*2,3,5", "--curvature=1e300", "--format=json",
            "--mirror-length=1e10"] in argvs


def test_argv_set_covers_the_topological_subcommands():
    argvs = expansion_diff.argv_set()
    commands = {argv[0] for argv in argvs[10_880:11_626]}
    assert commands == {"parse", "chi", "c", "classify", "scan", "tables"}
    assert ["classify", "--class=positive-zero", "--pair", "3*", "*3,3", "--format=json"] in argvs
    assert ["scan", "--class=pillows", "--bound=60", "--format=text"] in argvs
    assert ["scan", "--class=spherical", "--bound=500", "--format=json"] in argvs
    assert ["scan", "--class=pillows", "--bound=100", "--format=text"] in argvs


def test_argv_set_covers_the_flat_models_and_negative_values():
    argvs = expansion_diff.argv_set()
    assert {argv[0] for argv in argvs[11_626:]} == {"trace", "fit", "verify", "expansion", "classify"}
    assert ["trace", "--model=klein", "--t=1e-300", "--format=json"] in argvs
    assert ["verify", "--model=mirror-torus", "--format=text"] in argvs
    assert ["trace", "--model=torus", "--t", "-nan", "--format=json"] in argvs
    assert argvs[-2:] == [
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

    monkeypatch.setattr(expansion_diff, "extract", extract)
    assert expansion_diff.main(["--parent", "HEAD", "--change", "HEAD"]) == 0
    assert extracted == ["HEAD", "HEAD"]
    assert capsys.readouterr().out == "0 of 11712 argv differ\n"


def test_a_differing_run_is_printed_with_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(expansion_diff, "argv_set", lambda: [["c", "2,3,5"], ["chi", "2,3,5"]])
    monkeypatch.setattr(expansion_diff, "extract", lambda rev, into: into.mkdir())
    monkeypatch.setattr(expansion_diff, "start", lambda tree, argvs: contextlib.nullcontext(tree.name))
    outputs = {
        "parent": [(0, "271/30\n", ""), (0, "1/30\n", "")],
        "change": [(0, "271/30\n", ""), (1, "", "error: x\n")],
    }
    monkeypatch.setattr(expansion_diff, "results", outputs.get)
    assert expansion_diff.main(["--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().out == (
        "orbheat 'chi' '2,3,5'\n"
        "  parent: (0, '1/30\\n', '')\n"
        "  change: (1, '', 'error: x\\n')\n"
        "1 of 2 argv differ\n"
    )
