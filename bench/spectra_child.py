"""The spectra workload's library process.

    python3 bench/spectra_child.py SEED SECONDS   run rounds, print ops and records as JSON
    python3 bench/spectra_child.py SEED 0         set up only, then exit

It imports orbheat, builds the seed's inputs and runs whole rounds until
SECONDS have passed. Each record holds the op's wall seconds and its
output, or the error it raised; the parent checks the outputs. A SIGALRM
timer bounds every op, so no input can hang the run.
"""

from __future__ import annotations

import json
import random
import sys
import time

import inputs
from measure import timed_call
from orbheat.flat import FlatModel, brute_force_trace, default_grid, heat_trace, verify_model

OP_TIMEOUT_S = 20.0

_MODELS = tuple(FlatModel(name) for name in inputs.oracle.MODELS)


def execute(op):
    """Run one spectra op through the library and return its output."""
    kind = op["kind"]
    if kind == "trace":
        return [heat_trace(model, op["t"]) for model in _MODELS]
    if kind == "verify":
        return verify_model(FlatModel(op["model"]), times=default_grid(op["start"]))
    if kind == "oracle":
        return brute_force_trace(FlatModel(op["model"]), op["t"], op["cutoff"])
    raise ValueError(f"unknown spectra op {kind!r}")


def run(seed: int, seconds: float):
    """Run whole rounds until `seconds` pass; return (ops, records)."""
    rng = random.Random(seed)
    ops, records = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = inputs.spectra_round(rng)
        records += [timed_call(lambda: execute(op), OP_TIMEOUT_S) for op in batch]
        ops += batch
    return ops, records


def main(argv) -> int:
    seed, seconds = int(argv[1]), float(argv[2])
    if seconds <= 0:
        inputs.spectra_round(random.Random(seed))
        return 0
    ops, records = run(seed, seconds)
    json.dump({"ops": ops, "records": records}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
