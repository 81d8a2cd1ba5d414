"""Paired in-process timings of four orbheat layers in two commits, as one JSON file.

    python3 tools/layer_pairs.py --parent REV --change REV --out BENCH_N_layers.json
        [--pairs 21] [--seed 31]

Both commits are extracted with bench_pairs.trees, and each tree's
src/orbheat is loaded into this one process under its own package name,
`orbheat_parent` and `orbheat_change`; the two share no module object.
Four layers are timed, each on inputs drawn once from the seed and given
to both sides:

  * fit_expansion: the samples of the 10 verify grids below;
  * verify_model: the 5 flat models on grids whose start lies within a
    factor 10^0.1 of 1e-2 and of 1e-3, drawn as bench/inputs.py draws
    the spectra workload's verify ops;
  * heat_trace: the 5 models at 303 times, one per decade of
    [1e-300, 1e3], a range the benchmark's [1e-8, 1e-1] does not reach;
  * collision_groups: the spherical class at bound 500.

A side's time is the best of 5 repeats of one pass over the layer's
inputs (wall seconds, time.perf_counter).  Pair i times the parent first
when i is even and the change first when it is odd, so a slow spell of
the machine does not land on one side only.  Per layer the output holds
what bench_pairs.judge gives for lower-is-better seconds, with the verdict
of bench_pairs.compare, and the bound it was judged against: the
parent's own interquartile range relative to its median, so a change
reads `regression` when its median time exceeds the parent's by more than
the parent's runs spread.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import platform
import random
import sys
import time
from pathlib import Path

from bench_pairs import judge, pair_count, quartiles, trees

SIDES = ("parent", "change")
REPEATS = 5
# The spectra workload's verify grids: starts near 1e-2 and 1e-3,
# jittered by up to 10^0.1 either way (bench/inputs.py).
GRID_STARTS = (1e-2, 1e-3)
JITTER_DECADES = 0.1
# One trace time per decade of [1e-300, 1e3].
TRACE_DECADES = range(-300, 3)


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
    times = [10 ** rng.uniform(lo, lo + 1) for lo in TRACE_DECADES]
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


def run_pairs(packages: dict, pairs: int, seed: int) -> dict:
    """Time every layer of both sides for `pairs` pairs; return the per-layer report."""
    calls = {side: layers(name, seed) for side, name in packages.items()}
    for side_calls in calls.values():  # warm every path before any timing
        for call in side_calls.values():
            call()
    seconds = {layer: {side: [] for side in SIDES} for layer in calls["parent"]}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for layer, by_side in seconds.items():
            for side in order:
                by_side[side].append(best_time(calls[side][layer]))
    report = {}
    for layer, by_side in seconds.items():
        parent = quartiles(by_side["parent"])
        # Rounded up, so that bound * median, which compare works out, is
        # never below the parent's interquartile range.
        bound = math.nextafter(parent["iqr"] / parent["median"], math.inf)
        report[layer] = {
            "seconds": by_side,
            "bound": bound,
            **judge(by_side["parent"], by_side["change"], "lower", bound),
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

    with trees(args.parent, args.change) as (paths, commits):
        packages = {side: f"orbheat_{side}" for side in SIDES}
        for side, name in packages.items():
            load(paths[side], name)
        layers_report = run_pairs(packages, args.pairs, args.seed)
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
        ratio = entry["pair_ratio"]
        print(f"{layer}: {entry['verdict']}, change/parent median {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}], faster in {entry['change_better_pairs']}/{args.pairs}, "
              f"bound {entry['bound']:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
