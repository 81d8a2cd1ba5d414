"""Paired in-process timings of four orbheat layers in two commits, as one JSON file.

    python3 tools/layer_pairs.py --parent REV --change REV --out BENCH_N_layers.json
        [--pairs 21] [--seed 31]

Each commit is extracted with bench_pairs.extract into its own fresh
temporary directory, and each tree's src/orbheat is loaded into this one
process under its own package name: `orbheat_parent`, `orbheat_change`,
and `orbheat_null`, a second load of the change tree.  The three share no
module object.  Four layers are timed, each on inputs drawn once from the
seed and given to every side:

  * fit_expansion: the samples of the 10 verify grids below;
  * verify_model: the 5 flat models on grids whose start lies within a
    factor 10^0.1 of 1e-2 and of 1e-3, drawn as bench/inputs.py draws
    the spectra workload's verify ops;
  * heat_trace: the 5 models at 14 times, one per half decade of
    [1e-8, 1e-1];
  * collision_groups: the spherical class at bound 500.

A side's time is the best of 5 repeats of one pass over the layer's
inputs (wall seconds, time.perf_counter).  Pair i times the parent, the
change and the null side in a rotating order, so a slow spell of the
machine does not land on one side only.  Per layer the output holds each
side's times, the per-pair ratios change/parent with their median and
quartiles and the number of pairs in which the change was faster, and the
null ratios null/change, which read what no change reads; the change
stays "within the null spread" when its median ratio lies between the
smallest and the largest null ratio.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import platform
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import extract, pair_count, quartiles

SIDES = ("parent", "change", "null")
REPEATS = 5
# The spectra workload's verify grids: starts near 1e-2 and 1e-3,
# jittered by up to 10^0.1 either way (bench/inputs.py).
GRID_STARTS = (1e-2, 1e-3)
JITTER_DECADES = 0.1
TRACE_BINS = tuple(-8 + 0.5 * i for i in range(14))


def load(tree: Path, name: str):
    """Import tree/src/orbheat as the package `name`, with its own submodules."""
    root = tree / "src" / "orbheat"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def layers(name: str, seed: int) -> dict:
    """{layer: a call that runs one pass over its inputs} for the loaded package `name`."""
    flat = importlib.import_module(f"{name}.flat")
    classify = importlib.import_module(f"{name}.classify")
    rng = random.Random(seed)
    models = tuple(flat.FlatModel)
    grids = [
        (model, flat.default_grid(start * 10 ** rng.uniform(-JITTER_DECADES, JITTER_DECADES)))
        for model in models for start in GRID_STARTS
    ]
    samples = [flat.sample_trace(model, times) for model, times in grids]
    times = [10 ** rng.uniform(lo, lo + 0.5) for lo in TRACE_BINS]
    spherical = classify.OrbifoldClass(classify.ClassKind("spherical"), 500)
    return {
        "fit_expansion": lambda: [flat.fit_expansion(s) for s in samples],
        "verify_model": lambda: [flat.verify_model(m, times=g) for m, g in grids],
        "heat_trace": lambda: [flat.heat_trace(m, t) for t in times for m in models],
        "collision_groups": lambda: classify.collision_groups(spherical),
    }


def best_time(call) -> float:
    """The least wall seconds of REPEATS runs of call()."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def summary(change: list, parent: list) -> dict:
    """Quartiles of the per-pair ratios change/parent and the pairs the change won."""
    ratios = [c / p for c, p in zip(change, parent)]
    return {**quartiles(ratios), "faster_pairs": sum(c < p for c, p in zip(change, parent))}


def run_pairs(packages: dict, pairs: int, seed: int) -> dict:
    """Time every layer of every side for `pairs` pairs; return the per-layer report."""
    calls = {side: layers(name, seed) for side, name in packages.items()}
    for side_calls in calls.values():  # warm every path before any timing
        for call in side_calls.values():
            call()
    seconds = {layer: {side: [] for side in packages} for layer in calls["parent"]}
    for i in range(pairs):
        order = SIDES[i % 3:] + SIDES[:i % 3]
        for layer, by_side in seconds.items():
            for side in order:
                by_side[side].append(best_time(calls[side][layer]))
    report = {}
    for layer, by_side in seconds.items():
        ratio = summary(by_side["change"], by_side["parent"])
        null = summary(by_side["null"], by_side["change"])
        report[layer] = {
            "seconds": by_side,
            "ratio": ratio,
            "null_ratio": null,
            "within_null_spread": min(null["values"]) <= ratio["median"] <= max(null["values"]),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=pair_count, default=21)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="layer-pairs-"))
    try:
        commits = {side: extract(rev, work / side)
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        packages = {side: f"orbheat_{side}" for side in SIDES}
        trees = {"parent": work / "parent", "change": work / "change", "null": work / "change"}
        for side, name in packages.items():
            load(trees[side], name)
        layers_report = run_pairs(packages, args.pairs, args.seed)
    finally:
        shutil.rmtree(work)
    report = {
        "command": "python3 tools/layer_pairs.py --parent REV --change REV",
        "commits": commits,
        "pairs": args.pairs,
        "repeats": REPEATS,
        "seed": args.seed,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "layers": layers_report,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for layer, entry in layers_report.items():
        ratio, null = entry["ratio"], entry["null_ratio"]
        print(f"{layer}: change/parent median {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}], faster in {ratio['faster_pairs']}/{args.pairs}; "
              f"null {min(null['values']):.3f}-{max(null['values']):.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
