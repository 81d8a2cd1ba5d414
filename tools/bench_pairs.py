"""Paired benchmark runs of two commits, summarised as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json
        [--pairs 10] [--seed0 1000]

Both commits are extracted with `git archive` into one fresh temporary
directory (see `trees`) and run there as `python3 bench/run.py --workload
W --seed S --seconds T`, for every workload and the run length T that
BENCHMARK.json declares.  Pair i of the w-th workload runs both sides
with seed seed0 + 100 * w + i, the parent first in even pairs and the
change first in odd ones, so a slow spell of the machine does not land on
one side only.  The output holds, per workload and end-to-end metric,
what `judge` gives: each side's values, median and quartiles, the number
of pairs in which the change was better, the change of the median, the
parent's interquartile range, a verdict (see `compare`) and the median
and quartiles of the per-pair ratios change/parent (see `pair_ratio`).
It also holds the seeds, run order, source digests and host facts
that bench/run.py reports, and each run's median time and count per op
kind, so which kind sets op_p50_ms can be read from the file.  Each run's
floor_rss_mb is the peak RSS of the benchmark process itself, which no op
process can read below, so a peak_rss_mb at that floor shows.  Git,
BENCHMARK.json and the commits' trees are all taken from the repository
that holds this file, so it runs the same from any directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import statistics
import subprocess
import sys
import shutil
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# bench/run.py's report line for one op kind: "  <kind>: p50 X ms (n=N)".
OP_KIND_LINE = re.compile(r"  (\S+): p50 ([0-9.]+) ms \(n=([0-9]+)\)")
# The end of bench/run.py's peak_rss_mb line: "... peaked at X MB)".
FLOOR_RSS = re.compile(r"peak_rss_mb: .* peaked at ([0-9.]+) MB\)")


def extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` into `into`; return the full commit hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    # git archive run in a subdirectory would write only that subdirectory's tree.
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


@contextlib.contextmanager
def trees(parent: str, change: str):
    """Extract both commits into a fresh temporary directory, removed on exit.

    Yields ({side: tree}, {side: full commit hash}) for the sides "parent"
    and "change".
    """
    work = Path(tempfile.mkdtemp(prefix="orbheat-trees-"))
    try:
        paths = {"parent": work / "parent", "change": work / "change"}
        commits = {side: extract(rev, paths[side])
                   for side, rev in (("parent", parent), ("change", change))}
        yield paths, commits
    finally:
        shutil.rmtree(work)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One bench/run.py run: its result object, its environment object,
    {kind: {"p50_ms": X, "n": N}} from its per-op-kind report lines, and the
    benchmark process's own peak RSS in MB from its peak_rss_mb line, or
    None without one."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py {workload} {seed} in {checkout} failed:\n{proc.stderr}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), {})
    kinds = {m[1]: {"p50_ms": float(m[2]), "n": int(m[3])}
             for m in map(OP_KIND_LINE.fullmatch, lines) if m}
    floor = next((float(m[1]) for m in map(FLOOR_RSS.fullmatch, lines) if m), None)
    return json.loads(lines[-1]), env, kinds, floor


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Paired runs of one metric, judged against its declared direction and bound.

    parent[i] and change[i] are pair i.  The verdict is the first that holds:
    `gain` when the change is better in at least nine tenths of the pairs
    (ties count for neither side) and its median is better than the parent's
    by more than the parent's interquartile range; `regression` when the change's median is
    worse than the parent's by more than bound times the parent's median;
    `unresolved` when the parent's interquartile range exceeds that bound,
    unless every change run is better than every parent run; otherwise
    `no_regression`.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = quartiles(parent)
    delta, iqr = statistics.median(change) - base["median"], base["iqr"]
    allowed = bound * abs(base["median"])
    if 10 * wins >= 9 * len(parent) and sign * delta > iqr:
        verdict = "gain"
    elif sign * delta < -allowed:
        verdict = "regression"
    elif iqr > allowed and not min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "no_regression"
    return {"change_better_pairs": wins, "median_delta": delta, "parent_iqr": iqr, "verdict": verdict}


def pair_ratio(parent: list, change: list) -> dict | None:
    """Median and quartiles of change[i] / parent[i] over the pairs with a nonzero parent.

    A pair shares its seed and its spell of the machine, so the ratios can
    spread less than either side's runs.  They do not enter the verdict.
    None when fewer than two pairs have a nonzero parent.
    """
    ratios = [c / p for p, c in zip(parent, change) if p]
    return quartiles(ratios) if len(ratios) >= 2 else None


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides' quartiles, `compare`'s fields and verdict, and `pair_ratio`, for one metric."""
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        **compare(parent, change, better, bound),
        "pair_ratio": pair_ratio(parent, change),
    }


def run_pairs(args, sides: dict, commits: dict, workloads: list, seconds: float, declared: dict) -> dict:
    """Run every workload's pairs in the extracted trees `sides`; return the report."""
    report = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T",
        "seconds": seconds,
        "pairs": args.pairs,
        "commits": commits,
        "host": {},
        "src_sha256": {},
        "workloads": {},
    }
    for w, workload in enumerate(workloads):
        seeds = [args.seed0 + 100 * w + i for i in range(args.pairs)]
        runs = {"parent": [], "change": []}
        op_kinds = {"parent": [], "change": []}
        floors = {"parent": [], "change": []}
        order = []
        for i, seed in enumerate(seeds):
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(first[0])
            for side in first:
                result, env, kinds, floor = run_once(sides[side], workload, seed, seconds)
                runs[side].append(result)
                op_kinds[side].append(kinds)
                floors[side].append(floor)
                report["host"] = {k: env[k] for k in ("python", "numpy", "nproc", "cpu") if k in env}
                report["src_sha256"][side] = env.get("src_sha256")
                print(f"{workload} seed {seed} {side}: "
                      f"{ {k: v['value'] for k, v in result['metrics'].items()} }", file=sys.stderr)
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            spec = declared[name]
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                **judge(values["parent"], values["change"], spec["better"], spec["bound"]),
            }
        report["workloads"][workload] = {
            "seeds": seeds,
            "first_in_pair": order,
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "metrics": metrics,
            "op_kinds": op_kinds,
            "floor_rss_mb": floors,
        }
    return report


def pair_count(text: str) -> int:
    """--pairs as an int of at least 2, the fewest runs that have quartiles."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {pairs}")
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    with trees(args.parent, args.change) as (sides, commits):
        report = run_pairs(args, sides, commits, workloads, seconds, metrics)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
