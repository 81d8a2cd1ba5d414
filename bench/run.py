"""orbheat benchmark.

    python3 bench/run.py --workload scan|spectra|queries --seed N --seconds S --trace 0|1

Run from the repository root; orbheat is imported from ./src. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
with nothing traced; with --trace 1 they are the per-layer ones of a
separate, traced, in-process run. Every output is checked against the
independent references in oracle.py; a wrong, crashed or timed-out op is
a failed op. Lines before the last are a human-readable report.

Workloads, each a single closed-loop client with at most one child
process at a time:

  scan     fresh `orbheat scan --format json` processes over four full
           rosters, plus fresh c_preimage(pillows@60, c) inversion
           processes, half of them at attained c values
  spectra  one library process sweeping heat_trace over t in [1e-8, 1e-1],
           verify_model on two grids and the brute-force oracle
  queries  a seeded mix of short `orbheat` subcommands, one fresh process
           each, 5% of them malformed notations that must exit 1
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

# Every reference in oracle.py needs mpmath; without it, fail now, not
# after a whole run of ops.
import mpmath  # noqa: F401

import checks
import inputs
import measure
import oracle
import spans
from measure import CLI, BENCH, SRC, median, run_child

# Set-up is sampled SETUP_REPEATS times before the ops and then again
# between ops (scan, queries), or twice that many times before and after
# the single library process (spectra), so a slow spell of the machine at
# one point of the run moves its median less.
SETUP_REPEATS = 5
QUERIES_SETUP_EVERY = 10  # ops between two set-up samples
SCAN_OP_TIMEOUT_S = 60.0
QUERY_OP_TIMEOUT_S = 30.0
INPROCESS_OP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
WORK_NAMES = {
    "scan": ("members_per_s", "roster members enumerated per second of op time"),
    "spectra": ("evals_per_s", "heat_trace evaluations per second of sweep op time"),
    "queries": ("queries_per_s", "queries completed per second of op time"),
}
NOTES = (
    "trigsums: no workload; no user path calls it (only the tests do)",
    "not timed: t < 1e-8, scan bounds beyond the scan rosters and oracle cutoffs above "
    "n = 1e4, which can hang or exhaust memory today (ROADMAP item 4)",
)


@lru_cache(maxsize=None)
def roster_size(kind: str, bound: int) -> int:
    return len(oracle.roster(kind, bound))


class Run:
    """Per-op outcomes of one workload run."""

    def __init__(self):
        self.kinds, self.seconds, self.work, self.errors = [], [], [], []
        self.setup = []
        self.peak_rss_mb = 0.0
        self.parent_rss_mb = 0.0  # the children's ru_maxrss floor; see measure.run_child
        self.notes = []

    def add(self, kind: str, seconds: float, work: int, error: str | None):
        self.kinds.append(kind)
        self.seconds.append(seconds)
        self.work.append(work)
        self.errors.append(error)

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def _cli_setup(gen_s: float, repeats: int) -> list:
    """Set-up of a subprocess workload: a fresh `import orbheat.cli` plus input generation."""
    return [gen_s + s for s in measure.python_probe("import orbheat.cli", repeats)]


def _rounds(make, seconds: float):
    """Yield make(0), make(1), ... until `seconds` have passed (at least one round)."""
    start = time.perf_counter()
    index = 0
    yield make(index)
    while time.perf_counter() - start < seconds:
        index += 1
        yield make(index)


def _child_error(op, child):
    if child.timed_out:
        return "timed out"
    return checks.check_cli(op, child.code, child.stdout, child.stderr)


# ------------------------------------------------------------- untraced


def run_scan(seed: int, seconds: float, sizes=inputs.SCAN_FULL) -> Run:
    rng = random.Random(seed)
    run = Run()
    t0 = time.perf_counter()
    first = inputs.scan_round(rng, sizes)
    gen_s = time.perf_counter() - t0
    run.setup = _cli_setup(gen_s, SETUP_REPEATS)
    results = []
    for batch in _rounds(lambda i: first if i == 0 else inputs.scan_round(rng, sizes), seconds):
        for op in batch:
            if op["kind"] == "scan":
                cmd = CLI + tuple(op["argv"])
            else:
                cmd = (sys.executable, str(BENCH / "invert.py"), *op["argv"])
            results.append((op, run_child(cmd, SCAN_OP_TIMEOUT_S)))
            run.setup += _cli_setup(gen_s, 1)
    run.parent_rss_mb = measure.self_rss_mb()
    for op, child in results:
        run.peak_rss_mb = max(run.peak_rss_mb, child.maxrss_mb)
        run.add(op["kind"], child.seconds, roster_size(op["class"], op["bound"]), _child_error(op, child))
    return run


def run_spectra(seed: int, seconds: float) -> Run:
    run = Run()
    script = str(BENCH / "spectra_child.py")

    def setup():
        # The library process in set-up-only mode: import plus input generation.
        for _ in range(2 * SETUP_REPEATS):
            child = run_child((sys.executable, script, str(seed), "0"), 60.0)
            if child.code != 0:
                raise RuntimeError(f"spectra set-up failed: {child.stderr.strip()}")
            run.setup.append(child.seconds)

    setup()
    child = run_child((sys.executable, script, str(seed), repr(float(seconds))), seconds + 120.0)
    if child.code != 0 or child.timed_out:
        raise RuntimeError(f"spectra library process failed: {child.stderr.strip()[-500:]}")
    run.peak_rss_mb = child.maxrss_mb
    run.parent_rss_mb = measure.self_rss_mb()
    setup()
    data = json.loads(child.stdout)
    worst = 0.0
    for op, record in zip(data["ops"], data["records"]):
        error = record.get("error") or checks.check_spectra(op, record["out"])
        if op["kind"] == "trace" and "out" in record:
            worst = max(worst, *checks.trace_errors(op, record["out"]))
        run.add(op["kind"], record["seconds"], len(oracle.MODELS) if op["kind"] == "trace" else 0, error)
    run.notes.append(f"max_rel_err: {worst!r} ratio (worst heat_trace error vs the "
                     f"{oracle.DIGITS}-digit reference; limit {checks.TRACE_RTOL})")
    return run


def run_queries(seed: int, seconds: float) -> Run:
    rng = random.Random(seed)
    run = Run()
    t0 = time.perf_counter()
    first = inputs.queries_round(rng, 0)
    gen_s = time.perf_counter() - t0
    run.setup = _cli_setup(gen_s, SETUP_REPEATS)
    results = []
    for batch in _rounds(lambda i: first if i == 0 else inputs.queries_round(rng, i), seconds):
        for op in batch:
            results.append((op, run_child(CLI + tuple(op["argv"]), QUERY_OP_TIMEOUT_S)))
            if len(results) % QUERIES_SETUP_EVERY == 0:
                run.setup += _cli_setup(gen_s, 1)
    run.parent_rss_mb = measure.self_rss_mb()
    for op, child in results:
        run.peak_rss_mb = max(run.peak_rss_mb, child.maxrss_mb)
        run.add(op["kind"], child.seconds, 1, _child_error(op, child))
    return run


UNTRACED = {"scan": run_scan, "spectra": run_spectra, "queries": run_queries}


def end_to_end(workload: str, run: Run) -> dict:
    if workload == "spectra":
        sweep = [s for k, s in zip(run.kinds, run.seconds) if k == "trace"]
        work_per_s = sum(run.work) / sum(sweep)
    else:
        work_per_s = sum(run.work) / sum(run.seconds)
    values = {
        "setup_s": median(run.setup),
        "op_p50_ms": median(run.seconds) * 1e3,
        "work_per_s": work_per_s,
        "peak_rss_mb": run.peak_rss_mb,
        "ok_ratio": 1 - run.failed / len(run.seconds),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def report_end_to_end(workload: str, run: Run, metrics: dict) -> list:
    n = len(run.seconds)
    name, meaning = WORK_NAMES[workload]
    ms = [s * 1e3 for s in run.seconds]
    p90 = measure.tail_percentile(ms)
    lines = [
        f"workload {workload}: {n} ops, {run.failed} failed",
        f"setup_s: {metrics['setup_s']['value']!r} s (median of {len(run.setup)} set-ups)",
        f"op_p50_ms: {metrics['op_p50_ms']['value']!r} ms (n={n})",
        (f"op_p90_ms: {p90!r} ms (n={n}, {measure.percentile(ms, 0.9)[1]} beyond)" if p90 is not None
         else f"op_p90_ms: not reported (n={n}; fewer than ten samples lie beyond p90)"),
        f"work_per_s = {name}: {metrics['work_per_s']['value']!r} 1/s ({meaning})",
        f"peak_rss_mb: {metrics['peak_rss_mb']['value']!r} MB (highest ru_maxrss of the op processes; "
        f"the benchmark process, whose RSS is their floor, peaked at {run.parent_rss_mb:.1f} MB)",
        f"failed_ratio: {run.failed / n!r} ratio (ok_ratio = 1 - failed_ratio = {metrics['ok_ratio']['value']!r})",
    ]
    for kind in sorted(set(run.kinds)):
        samples = [s for k, s in zip(run.kinds, ms) if k == kind]
        lines.append(f"  {kind}: p50 {median(samples):.3f} ms (n={len(samples)})")
    lines += run.notes + list(NOTES)
    lines += [f"FAILED {kind}: {error}" for kind, error in zip(run.kinds, run.errors) if error][:20]
    return lines


# --------------------------------------------------------------- traced


def _inprocess_cli(argv):
    import orbheat.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = orbheat.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _inprocess_op(op):
    """(exit code, stdout, stderr) of a scan or queries op run in this process."""
    if op["kind"] != "invert":
        return _inprocess_cli(op["argv"])
    import invert

    return 0, json.dumps(invert.preimage(op["class"], op["bound"], op["target"])), ""


def traced_ops(workload: str, seed: int, sizes=inputs.SCAN_FULL):
    """(make, execute, check) for the in-process replay of a workload's ops."""
    rng = random.Random(seed)
    if workload == "spectra":
        import spectra_child

        return (lambda index: inputs.spectra_round(rng)), spectra_child.execute, checks.check_spectra

    def make(index):
        return inputs.scan_round(rng, sizes) if workload == "scan" else inputs.queries_round(rng, index)

    return make, _inprocess_op, lambda op, out: checks.check_cli(op, *out)


def run_traced(workload: str, seed: int, seconds: float, sizes=inputs.SCAN_FULL):
    """Run every op in-process twice, untraced and traced, back to back.

    Pairing the two runs of an op keeps the machine's slow drifts out of
    their ratio; which of the two goes first alternates, so neither gains
    from caches the other warmed.
    """
    make, execute, check = traced_ops(workload, seed, sizes)
    tracer = spans.Tracer()
    ops, untraced, traced = [], [], []

    def run_untraced(op):
        untraced.append(measure.timed_call(lambda: execute(op), INPROCESS_OP_TIMEOUT_S))

    def run_traced_op(op):
        with tracer.installed(), tracer.op(op["kind"]):
            traced.append(measure.timed_call(lambda: execute(op), INPROCESS_OP_TIMEOUT_S))

    for batch in _rounds(make, seconds):
        for op in batch:
            pair = (run_untraced, run_traced_op) if len(ops) % 2 == 0 else (run_traced_op, run_untraced)
            ops.append(op)
            for run_once in pair:
                run_once(op)
    errors = []
    for op, a, b, span in zip(ops, untraced, traced, tracer.spans):
        error = a.get("error") or b.get("error") or check(op, a["out"]) or check(op, b["out"])
        group = span.stages.get("classify.group")
        if not error and op["kind"] == "scan" and group is not None:
            want = checks.scan_group_count(op["class"], op["bound"])
            if group.count != want:
                error = f"collision_groups found {group.count} groups, reference {want}"
        errors.append(error)
    return ops, untraced, traced, errors, tracer


def _probe_cli() -> dict:
    code = "import time; t = time.perf_counter(); import orbheat.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(SETUP_REPEATS):
        child = run_child((sys.executable, "-c", code), 60.0)
        imports.append(float(child.stdout))
    return {
        "cli.import_s": (median(imports), "s"),
        "cli.numpy_import_s": (measure.importtime().get("numpy", 0.0), "s"),
        "cli.interp_ms": (median(measure.python_probe("pass", SETUP_REPEATS)) * 1e3, "ms"),
    }


# The largest roster each workload enumerates.
LARGEST_ROSTER = {
    "scan": ("pillows", 100),
    "queries": ("pillows", inputs.QUERY_PILLOW_BOUND),
    "spectra": None,
}


def _enumerate_rss_mb(roster) -> float:
    """Peak RSS of a fresh process enumerating a roster, over an import-only one.

    A child's ru_maxrss starts from its parent's RSS at spawn time, so this
    runs before the traced run has grown the benchmark process.
    """
    if roster is None:
        return 0.0
    kind, bound = roster
    head = "from orbheat.classify import ClassKind, OrbifoldClass, enumerate_class\n"
    base = run_child((sys.executable, "-c", head), 60.0)
    full = run_child((sys.executable, "-c", head + f"enumerate_class(OrbifoldClass(ClassKind({kind!r}), {bound}))"), 120.0)
    return max(0.0, full.maxrss_mb - base.maxrss_mb)


QUERY_RUN_KINDS = ("parse", "chi", "c", "expansion", "classify", "trace", "fit", "verify",
                   "tables", "scan", "malformed")


def _klein_default_grid_err(workload: str) -> float:
    """|fitted - predicted| degree-0 coefficient of Klein on the exact default grid.

    The spectra ops draw their grid starts near 1e-2, where this miss moves
    tenfold; this one untimed call keeps the default grid's ~3.5e-3 in view.
    """
    if workload != "spectra":
        return 0.0
    from orbheat.flat import FlatModel, verify_model

    return verify_model(FlatModel("klein"))["0"]["abs_err"]


def probes(workload: str) -> dict:
    """Per-layer figures measured outside the traced ops."""
    out = _probe_cli()
    out["classify.enumerate.rss_mb"] = (_enumerate_rss_mb(LARGEST_ROSTER[workload]), "MB")
    out["flat.fit.klein_deg0_abs_err"] = (_klein_default_grid_err(workload), "ratio")
    return out


def per_layer(workload, ops, untraced, traced, tracer, probed) -> tuple:
    T = tracer.totals()
    inv = tracer.totals({"invert"})

    def st(name, totals=T):
        return totals.get(name, spans.Stage())

    untraced_wall = sum(r["seconds"] for r in untraced)
    found = sum(len(r["out"]) for op, r in zip(ops, traced) if op["kind"] == "invert" and "out" in r)
    examined = st("classify.enumerate", inv).count
    theta = st("flat.theta1")
    rel_errs = [e for op, r in zip(ops, traced) if "out" in r for e in _trace_errs(workload, op, r["out"])]
    stage_self = sum(s.self_s for name, s in T.items() if name != "op")
    m = {
        "heat.spectral_c.calls": (st("heat.spectral_c").calls, "count"),
        "heat.spectral_c.busy_s": (st("heat.spectral_c").self_s, "s"),
        "classify.enumerate.members": (st("classify.enumerate").count, "count"),
        "classify.enumerate.busy_s": (st("classify.enumerate").self_s, "s"),
        "classify.enumerate.rss_mb": probed["classify.enumerate.rss_mb"],
        "classify.group.busy_s": (st("classify.group").self_s, "s"),
        "classify.groups": (st("classify.group").count, "count"),
        "classify.c_preimage.busy_s": (st("classify.c_preimage").self_s, "s"),
        "classify.c_preimage.examined": (examined, "count"),
        "classify.c_preimage.hit_ratio": (found / examined if examined else 0.0, "ratio"),
        "signature.construct.busy_s": (st("signature.construct").self_s, "s"),
        "signature.chi.busy_s": (st("signature.chi").self_s, "s"),
        "flat.theta1.calls": (theta.calls, "count"),
        "flat.theta1.busy_s": (theta.self_s, "s"),
        "flat.theta1.small_t_share": (theta.small_t_s / theta.busy_s if theta.busy_s else 0.0, "ratio"),
        "flat.heat_trace.max_rel_err": (max(rel_errs, default=0.0), "ratio"),
        "flat.multiplicities.busy_s": (st("flat.multiplicities").self_s, "s"),
        "flat.multiplicities.lattice_points": (st("flat.multiplicities").count, "count"),
        "flat.fit.busy_s": (st("flat.fit").self_s, "s"),
        "flat.fit.condition": (st("flat.fit").condition, "ratio"),
        "flat.fit.residual": (st("flat.fit").residual, "ratio"),
        "flat.fit.klein_deg0_abs_err": probed["flat.fit.klein_deg0_abs_err"],
        "notation.parse.busy_s": (st("notation.parse").self_s, "s"),
        "notation.render.busy_s": (st("notation.render").self_s, "s"),
        "heat.full_expansion.busy_s": (st("heat.full_expansion").self_s, "s"),
        "classify.pillow_negative.busy_s": (st("classify.pillow_negative").self_s, "s"),
        "tables.verify.busy_s": (st("tables.verify").self_s, "s"),
    }
    m.update({k: v for k, v in probed.items() if k.startswith("cli.")})
    for kind in QUERY_RUN_KINDS:
        # Only scan and queries ops go through orbheat.cli.run.
        samples = [r["seconds"] for op, r in zip(ops, untraced)
                   if workload != "spectra" and op["kind"].split("-")[0] == kind]
        m[f"cli.run_ms.{kind}"] = (median(samples) * 1e3 if samples else 0.0, "ms")
    m["trace.overhead_ratio"] = (tracer.wall() / untraced_wall, "ratio")
    m["trace.stage_share"] = (stage_self / untraced_wall, "ratio")
    return m, untraced_wall


def _trace_errs(workload, op, out):
    if op["kind"] != "trace":
        return []
    if workload == "spectra":
        return checks.trace_errors(op, out)
    code, stdout, _ = out
    if code != 0:
        return []
    return [oracle.rel_err(json.loads(stdout)["value"], oracle.trace_ref(op["model"], op["t"]))]


def report_layers(workload, metrics, tracer, untraced_wall) -> list:
    lines = [f"workload {workload} (traced): untraced wall {untraced_wall:.3f} s, "
             f"traced wall {tracer.wall():.3f} s"]
    lines.append(f"{'stage':28} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
    for name, st in sorted(tracer.totals().items(), key=lambda kv: -kv[1].self_s):
        label = "(unattributed op time)" if name == "op" else name
        lines.append(f"{label:28} {st.calls:>10} {st.busy_s:>10.4f} {st.self_s:>10.4f}")
    lines.append(f"stages account for {metrics['trace.stage_share']['value']:.4f} of the untraced wall; "
                 f"tracing overhead ratio {metrics['trace.overhead_ratio']['value']:.4f}")
    lines.append("flat.multiplicities.lattice_points is computed from the cutoff, not counted")
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']!r} {m['unit']}")
    lines += NOTES
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(UNTRACED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbheat" / "__init__.py").is_file():
        print(f"error: no orbheat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = measure.environment(args.seed)
    if args.trace:
        probed = probes(args.workload)
        ops, untraced, traced, errors, tracer = run_traced(args.workload, args.seed, args.seconds)
        layer, untraced_wall = per_layer(args.workload, ops, untraced, traced, tracer, probed)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        lines = report_layers(args.workload, metrics, tracer, untraced_wall)
        lines += [f"FAILED {op['kind']}: {e}" for op, e in zip(ops, errors) if e][:20]
        attempted, failed = len(ops), sum(e is not None for e in errors)
        path = measure.write_result(f"spans-{args.workload}-{args.seed}.json", {"spans": tracer.to_json()})
        lines.append(f"spans: {path}")
        details = {}
    else:
        run = UNTRACED[args.workload](args.seed, args.seconds)
        metrics = end_to_end(args.workload, run)
        lines = report_end_to_end(args.workload, run, metrics)
        attempted, failed = len(run.seconds), run.failed
        details = {"ops": [{"kind": k, "seconds": sec, "error": e}
                           for k, sec, e in zip(run.kinds, run.seconds, run.errors)]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = measure.write_result(f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
                                {"environment": env, "report": lines, **details, **result})
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"result file: {path}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
