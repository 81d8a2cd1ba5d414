"""Paired benchmark runs of two commits, summarised as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_N.json
        [--pairs 10] [--seed0 1000]

Each commit is extracted with `git archive` into its own fresh temporary
directory and run there as `python3 bench/run.py --workload W --seed S
--seconds T`, for every workload and the run length T that BENCHMARK.json
declares.  Pair i of the w-th workload runs both sides with seed
seed0 + 100 * w + i, the parent first in even pairs and the change first in
odd ones, so a slow spell of the machine does not land on one side only.
The output holds, per workload and end-to-end metric, each side's values,
median and quartiles, and the number of pairs in which the change was
better, plus the seeds, run order, source digests and host facts that
bench/run.py reports.  Run from inside the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import shutil
import tempfile
from pathlib import Path


def extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` into `into`; return the full commit hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One bench/run.py run: (its result object, its environment object)."""
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
    return json.loads(lines[-1]), env


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_pairs(args, work: Path, workloads: list, seconds: float, better: dict) -> dict:
    """Extract both commits under `work`, run every workload's pairs, return the report."""
    sides = {"parent": work / "parent", "change": work / "change"}
    commits = {side: extract(rev, sides[side])
               for side, rev in (("parent", args.parent), ("change", args.change))}

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
        order = []
        for i, seed in enumerate(seeds):
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(first[0])
            for side in first:
                result, env = run_once(sides[side], workload, seed, seconds)
                runs[side].append(result)
                report["host"] = {k: env[k] for k in ("python", "numpy", "nproc", "cpu") if k in env}
                report["src_sha256"][side] = env.get("src_sha256")
                print(f"{workload} seed {seed} {side}: "
                      f"{ {k: v['value'] for k, v in result['metrics'].items()} }", file=sys.stderr)
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            sign = 1 if better.get(name) == "higher" else -1
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "better": better.get(name),
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_better_pairs": sum(
                    sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
                ),
            }
        report["workloads"][workload] = {
            "seeds": seeds,
            "first_in_pair": order,
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "metrics": metrics,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)

    declared = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        report = run_pairs(args, work, workloads, seconds, better)
    finally:
        shutil.rmtree(work)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
