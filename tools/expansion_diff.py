"""Byte-for-byte differential of `orbheat` subcommands between two commits.

    python3 tools/expansion_diff.py --parent REV --change REV

Both commits are extracted with bench_pairs.trees.  One Python process
per tree runs every argv of argv_set() through that tree's orbheat.cli.run
and records its exit code, stdout and stderr; the two processes run side
by side.  The argv set is fixed, 11,718 runs in four named groups, in this
order, each in both formats:

  * "expansion": 17 signatures x 16 curvatures x 5 areas x 4 mirror
    lengths x 2 formats, 10,880 runs, chosen around the edges of the float
    range;
  * "topological", 750 runs: `parse`, `chi` and `c` on the 17 signatures;
    `classify --class spherical|positive-zero --pair` on the ordered pairs
    of 12 notations; `classify --class pillow-negative` at 16 c values;
    `scan` on all four classes at bounds 2, 20 and 60, at the benchmark's
    sizes, pillows at 100 and the other three at 500, and on two rosters
    past the roster limit: pillows at 200, whose 1,333,300 members pass it
    in the first stem, and spherical at 150,000, whose 1,050,000 members
    come one per stem; and `tables --which 1|2`;
  * "flat models", 70 runs: `trace` on the 5 models at 5 times from
    1e-300 to 1e3, and `fit` and `verify` on the 5 models;
  * "negative values", 18 runs: 9 negative values given as a separate
    word: `--curvature -1/4`, `--curvature -1e-3`, `--mirror-length -0.0`,
    five non-finite words such as `--area -inf` and `--t -nan`, and
    `--c-value -7/2`.

Each argv whose (exit, stdout, stderr) differs is printed with its group
and both sides, and the exit status is 1 when any differ, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import trees

SIGNATURES = (
    "", "o", "o,o", "x", "2,3,5", "2,3,6", "2,3,7", "2,2,3,3", "o,2",
    "*", "o,*", "3*", "*2,2,5", "*2,3,5", "*2,3,7",
    "2,2," + "7" * 250,  # degree 1 past the float range
    "2,2,1" + "0" * 400,  # chi = 10^-400 below it
)
CURVATURES = (
    "0", "1", "-1", "1/4", "-1/4", "3", "1e-9", "-1e-9", "1e160", "-1e160",
    "1e300", "-1e300", "1e-400", "1e400", "3e308",
    "1.7976931348623158e308",  # just above the largest float
)
AREAS = (None, "1", "0.20943951023931953", "6.283185307179586", "12.566370614359172")
MIRROR_LENGTHS = (None, "1", "1e10", "1e308")
FORMATS = ("text", "json")
# Spherical, flat, bad and hyperbolic, with and without mirrors.
PAIR_NOTATIONS = (
    "", "x", "*", "2,2,2", "*2,2,2", "3*", "*3,3", "2,3,5", "*2,3,5", "o", "5", "2,3,7",
)
C_VALUES = (
    "0", "-1", "-5/3", "1/2", "4", "8", "9", "41/5", "64/7", "271/30", "461/42",
    "647/60", "67/4", "8001/2",
    "600000000000001/10000000",  # past classify.PILLOW_ORDER_LIMIT
    "1/0",
)
SCAN_CLASSES = ("teardrops-footballs", "pillows", "class-c", "spherical")
SCAN_BOUNDS = (2, 20, 60)
# The rosters of the benchmark's scan workload.
BENCH_SCANS = (("teardrops-footballs", 500), ("pillows", 100), ("class-c", 500), ("spherical", 500))
# Rosters past classify.SCAN_MEMBER_LIMIT, which scan refuses.
REFUSED_SCANS = (("pillows", 200), ("spherical", 150_000))
MODELS = ("torus", "klein", "pillowcase", "square", "mirror-torus")
TRACE_TIMES = ("1e-300", "1e-8", "0.01", "1", "1e3")
# A negative value as its own word, not --option=value.
NEGATIVE_VALUES = (
    ["expansion", "2,3,7", "--curvature", "-1/4"],
    ["expansion", "2,3,7", "--curvature", "-1e-3"],
    ["expansion", "2,3,7", "--curvature", "-1/4", "--area", "-inf"],
    ["expansion", "2,3,7", "--curvature", "-Infinity"],
    ["expansion", "2,3,7", "--curvature=1", "--mirror-length", "-INF"],
    ["expansion", "o", "--curvature=0", "--area=1", "--mirror-length", "-0.0"],
    ["trace", "--model=torus", "--t", "-nan"],
    ["trace", "--model=torus", "--t", "-NaN"],
    ["classify", "--class=pillow-negative", "--c-value", "-7/2"],
)

# Run in each tree: read a JSON list of argv on stdin, write a JSON list of
# [exit, stdout, stderr] on stdout.  Building the argparse parser is most of
# a run's time and parsing leaves it as it was, so run() gets one parser.
_WORKER = """
import contextlib, functools, io, json, sys
from orbheat import cli
cli.build_parser = functools.cache(cli.build_parser)
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def argv_set() -> dict:
    """Every argv of the differential, by group, in a fixed order: expansion first."""
    expansion = []
    for sig, K, area, length, fmt in itertools.product(
        SIGNATURES, CURVATURES, AREAS, MIRROR_LENGTHS, FORMATS
    ):
        # --option=value, so that argparse reads a negative value as a value.
        argv = ["expansion", sig, f"--curvature={K}", f"--format={fmt}"]
        argv += [f"--area={area}"] * (area is not None)
        argv += [f"--mirror-length={length}"] * (length is not None)
        expansion.append(argv)
    topological = [[command, sig] for command in ("parse", "chi", "c") for sig in SIGNATURES]
    topological += [
        ["classify", f"--class={name}", "--pair", a, b]
        for name in ("spherical", "positive-zero")
        for a, b in itertools.product(PAIR_NOTATIONS, repeat=2)
    ]
    topological += [["classify", "--class=pillow-negative", f"--c-value={c}"] for c in C_VALUES]
    topological += [
        ["scan", f"--class={name}", f"--bound={bound}"]
        for name in SCAN_CLASSES
        for bound in SCAN_BOUNDS
    ]
    topological += [
        ["scan", f"--class={name}", f"--bound={bound}"] for name, bound in (*BENCH_SCANS, *REFUSED_SCANS)
    ]
    topological += [["tables", f"--which={which}"] for which in (1, 2)]
    flat = [["trace", f"--model={m}", f"--t={t}"] for m in MODELS for t in TRACE_TIMES]
    flat += [[command, f"--model={m}"] for command in ("fit", "verify") for m in MODELS]
    groups = {"topological": topological, "flat models": flat, "negative values": NEGATIVE_VALUES}
    return {"expansion": expansion} | {
        name: [argv + [f"--format={fmt}"] for argv in argvs for fmt in FORMATS]
        for name, argvs in groups.items()
    }


def start(tree: Path, argvs: list) -> subprocess.Popen:
    """Start the worker on the orbheat under tree/src, fed argvs."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _WORKER], cwd=tree, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def results(proc: subprocess.Popen) -> list:
    """The worker's (exit, stdout, stderr) per argv, once it has ended."""
    out, err = proc.stdout.read(), proc.stderr.read()
    if proc.wait() != 0:
        raise RuntimeError(f"the worker failed:\n{err}")
    return [tuple(r) for r in json.loads(out)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    named = [(group, argv) for group, argvs in argv_set().items() for argv in argvs]
    argvs = [argv for _, argv in named]
    # The stack closes the pipes and waits before the trees are removed.
    with trees(args.parent, args.change) as (sides, _), contextlib.ExitStack() as procs:
        started = {side: procs.enter_context(start(tree, argvs)) for side, tree in sides.items()}
        outputs = {side: results(proc) for side, proc in started.items()}
    differing = 0
    for (group, run_argv), parent, change in zip(named, outputs["parent"], outputs["change"]):
        if parent != change:
            differing += 1
            print(f"[{group}] orbheat", *map(repr, run_argv))
            print(f"  parent: {parent!r}")
            print(f"  change: {change!r}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
