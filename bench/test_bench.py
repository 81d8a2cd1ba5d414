"""Tests of the benchmark itself: inputs, oracles, accounting and smoke runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

GENERATORS = {
    "scan": lambda rng, index: inputs.scan_round(rng, inputs.SCAN_FULL),
    "spectra": lambda rng, index: inputs.spectra_round(rng),
    "queries": inputs.queries_round,
}


def _rounds(workload, seed, n=3):
    rng = random.Random(seed)
    return [GENERATORS[workload](rng, i) for i in range(n)]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs(workload):
    assert _rounds(workload, 7) == _rounds(workload, 7)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_different_seeds_different_inputs(workload):
    assert _rounds(workload, 7) != _rounds(workload, 8)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_round_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted(op["kind"] for op in _rounds(workload, seed, 1)[0])

    assert mix(1) == mix(2)


def test_queries_round_is_about_five_percent_malformed():
    kinds = [op["kind"] for op in _rounds("queries", 3, 1)[0]]
    assert kinds.count("malformed") == 1
    assert abs(kinds.count("malformed") / len(kinds) - 0.05) < 0.005


def test_query_kinds_are_weighted_evenly():
    rounds = _rounds("queries", 3, 3)
    for r in rounds:
        kinds = [op["kind"].split("-")[0] for op in r if op["kind"] != "malformed"]
        assert sorted(kinds) == sorted(inputs.QUERY_KINDS * inputs.QUERY_REPEATS)
    subjects = [op["kind"] for r in rounds for op in r if op["kind"].startswith("classify")]
    assert sorted(subjects) == sorted(inputs.CLASSIFY_SUBJECTS * inputs.QUERY_REPEATS)


def test_query_scans_cover_every_class_in_two_rounds():
    scans = [op for r in _rounds("queries", 3, 2) for op in r if op["kind"] == "scan"]
    assert sorted(op["class"] for op in scans) == sorted(inputs.CLASSES)
    assert all(op["bound"] <= inputs.QUERY_SCAN_BOUND for op in scans)


def test_spectra_ops_never_repeat_their_arguments():
    ops = [op for r in _rounds("spectra", 3, 20) for op in r]
    keys = [tuple(sorted(op.items())) for op in ops]
    assert len(set(keys)) == len(keys)
    for op in ops:
        if op["kind"] == "oracle":
            assert op["cutoff"] >= inputs.SMALL_CUTOFFS[0] and op["cutoff"] <= inputs.LARGE_CUTOFFS[1]


def test_scan_inversions_are_half_hits_half_misses():
    ops = [op for op in _rounds("scan", 5, 1)[0] if op["kind"] == "invert"]
    table = checks.roster_c_table(*inputs.SCAN_FULL.invert)
    hits = [Fraction(op["target"]) in table for op in ops]
    assert sum(hits) == len(hits) // 2


def test_percentile_is_nearest_rank_with_count_beyond():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.5) == (50, 50)
    assert measure.percentile(values, 0.9) == (90, 10)


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(100))) == 89
    assert measure.tail_percentile(list(range(99))) is None
    assert measure.tail_percentile([]) is None


def test_failed_ratio_counts_wrong_crashed_and_timed_out_ops():
    r = run.Run()
    r.setup = [0.1]
    r.add("ok", 0.010, 1, None)
    r.add("wrong", 0.020, 1, "value mismatch")
    op = {"kind": "tables", "which": 2, "argv": ["tables", "--which", "2"]}
    r.add("crash", 0.030, 1, run._child_error(op, measure.Child(1, "", "Traceback", 0.03, 1.0, False)))
    r.add("hang", 0.040, 1, run._child_error(op, measure.Child(-9, "", "", 0.04, 1.0, True)))
    assert run._child_error(op, measure.Child(0, "[]", "", 0.04, 1.0, False)) is None
    assert r.failed == 3
    metrics = run.end_to_end("queries", r)
    assert metrics["ok_ratio"]["value"] == 0.25
    assert metrics["op_p50_ms"]["value"] == pytest.approx(25.0)


def test_op_timeout_is_a_failed_op_not_a_failed_run():
    record = measure.timed_call(lambda: [i for i in iter(int, 1)], 0.05)
    assert record.get("timeout") and "error" in record


def test_oracle_closed_forms():
    assert oracle.c_value(oracle.sig((2, 3, 5))) == (271, 30)
    assert oracle.chi_value(oracle.sig((2, 3, 5))) == (1, 30)
    assert oracle.c_value(oracle.sig((3, 3, 4))) == (107, 12)
    assert oracle.c_value(oracle.sig((), (), 1)) == (0, 1)
    assert oracle.render(oracle.sig((5, 3), [[2, 2], []], 0, 1)) == "3,5,*,*2,2×"


def test_theta_reference_matches_jacobi_theta():
    import mpmath

    for t in (1e-3, 0.05, 0.5):
        with mpmath.workdps(oracle.DIGITS):
            q = mpmath.exp(-4 * mpmath.pi**2 * mpmath.mpf(t))
            assert abs(oracle.theta_ref(t) / mpmath.jtheta(3, 0, q) - 1) < mpmath.mpf(10) ** -30


# Deck groups of the flat models: (a, d, bx, by) maps x -> (a x1 + bx, d x2 + by).
_DECKS = {
    "torus": [(1, 1, 0, 0)],
    "klein": [(1, 1, 0, 0), (1, -1, 0.5, 0)],
    "pillowcase": [(1, 1, 0, 0), (-1, -1, 0, 0)],
    "square": [(1, 1, 0, 0), (-1, -1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0)],
    "mirror-torus": [(1, 1, 0, 0), (-1, 1, 0, 0)],
}


@pytest.mark.parametrize("model", oracle.MODELS)
def test_reference_traces_match_a_lattice_sum(model):
    # Trace of the deck-averaged heat kernel: (1/|G|) sum_g sum_{v fixed by g} e^{2 pi i v.b} e^{-4 pi^2 |v|^2 t}.
    t, K = 0.1, 12
    total = 0.0
    for a, d, bx, by in _DECKS[model]:
        for k in range(-K, K + 1):
            for l in range(-K, K + 1):
                if (a == 1 or k == 0) and (d == 1 or l == 0):
                    total += math.cos(2 * math.pi * (k * bx + l * by)) * math.exp(-4 * math.pi**2 * (k * k + l * l) * t)
    assert float(oracle.trace_ref(model, t)) == pytest.approx(total / len(_DECKS[model]), rel=1e-13)


def test_checks_catch_wrong_outputs():
    op = {"kind": "parse", "sig": oracle.sig((2, 3)), "argv": ["parse", "3,2"]}
    good = json.dumps(oracle.to_json(op["sig"]))
    assert checks.check_cli(op, 0, good, "") is None
    assert checks.check_cli(op, 0, good.replace("3", "4"), "") is not None
    assert checks.check_cli(op, 1, good, "") is not None
    bad = {"kind": "malformed", "position": 4, "argv": ["c", "2,3#"]}
    assert checks.check_cli(bad, 1, "", "error: unexpected character '#' (at position 4)\n") is None
    assert checks.check_cli(bad, 1, "", "error: unexpected character '#' (at position 3)\n") is not None
    pairs = [{"sig_a": a, "sig_b": b, "c": oracle.rational_json(c)}
             for a, b, c in checks.scan_pairs("spherical", 12)]
    assert checks.check_scan_output("spherical", 12, pairs) is None
    assert checks.check_scan_output("spherical", 12, pairs[1:]) is not None
    inv = {"kind": "invert", "class": "pillows", "bound": 6, "target": "271/30", "argv": ["pillows", "6", "271/30"]}
    assert checks.check_cli(inv, 0, json.dumps([oracle.to_json(oracle.sig((2, 3, 5)))]), "") is None
    assert checks.check_cli(inv, 0, "[]", "") is not None


def test_tables_check_holds_golden_rows_to_the_oracle(monkeypatch):
    from orbheat import tables

    assert checks.golden_rows_off(1) == [] and checks.golden_rows_off(2) == []
    op = {"kind": "tables", "which": 2, "argv": ["tables", "--which", "2"]}
    assert checks.check_cli(op, 0, "[]", "") is None
    wrong = (("2,3,5", Fraction(1, 30), Fraction(272, 30)),) + tables.TABLE2_FIXED[1:]
    monkeypatch.setattr(tables, "TABLE2_FIXED", wrong)
    checks.golden_rows_off.cache_clear()
    try:
        assert checks.check_cli(op, 0, "[]", "") is not None
    finally:
        monkeypatch.undo()
        checks.golden_rows_off.cache_clear()


def test_smoke_scan():
    r = run.run_scan(11, 0.0, inputs.SCAN_SMOKE)
    assert r.failed == 0 and len(r.seconds) == 6
    assert all(m["value"] > 0 for m in run.end_to_end("scan", r).values())


def test_smoke_spectra():
    r = run.run_spectra(11, 0.2)
    assert r.failed == 0
    assert all(m["value"] > 0 for m in run.end_to_end("spectra", r).values())


def test_smoke_queries():
    r = run.run_queries(11, 0.0)
    assert r.failed == 0 and len(r.seconds) == len(inputs.QUERY_KINDS) * inputs.QUERY_REPEATS + 1
    assert all(m["value"] > 0 for m in run.end_to_end("queries", r).values())


@pytest.mark.parametrize("workload", ["scan", "spectra", "queries"])
def test_smoke_traced(workload):
    ops, untraced, traced, errors, tracer = run.run_traced(workload, 11, 0.0, inputs.SCAN_SMOKE)
    assert not any(errors)
    probed = {"classify.enumerate.rss_mb": (0.0, "MB"), "cli.import_s": (0.1, "s"),
              "flat.fit.klein_deg0_abs_err": (0.0, "ratio")}
    layer, _ = run.per_layer(workload, ops, untraced, traced, tracer, probed)
    assert layer["trace.overhead_ratio"][0] > 0
    if workload == "scan":
        assert layer["classify.groups"][0] == sum(
            len(oracle.collision_groups(oracle.roster(k, b))) for k, b in inputs.SCAN_SMOKE.rosters)


def test_refuses_to_run_without_sources():
    bare = measure.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
