"""Output checks: compare each operation's output with the oracle.

Every check returns None when the output is right and a one-line reason
when it is not. A check never raises on malformed output; it reports it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import oracle

# Relative error allowed between a float output and its 40-digit reference.
# theta1 sums up to ~1e4 positive terms at t = 1e-8, so rounding alone can
# reach ~1e4 * 2^-53 ~ 1e-12; anything larger is a defect, not rounding.
TRACE_RTOL = 1e-12
# Brute-force oracle against the closed form (acceptance criterion 5).
ORACLE_TOL = 1e-10
# Fits on the grid starting at 1e-3 against the predicted coefficients.
FIT_1E3_TOL = 1e-9
# Float least squares against the 40-digit least squares of the same
# samples: cond(design) ~ 1e6 on these grids times double rounding.
FIT_REF_TOL = 1e-8
# Closed-form float coefficients against their independent restatement.
COEF_RTOL = 1e-12


def _close(a, b, rtol) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


@lru_cache(maxsize=None)
def scan_pairs(kind: str, bound: int) -> tuple:
    return tuple(oracle.collision_pairs(oracle.roster(kind, bound)))


@lru_cache(maxsize=None)
def scan_group_count(kind: str, bound: int) -> int:
    return len(oracle.collision_groups(oracle.roster(kind, bound)))


@lru_cache(maxsize=None)
def roster_c_table(kind: str, bound: int) -> dict:
    table = {}
    for s in oracle.roster(kind, bound):
        table.setdefault(oracle.frac(oracle.c_value(s)), []).append(s)
    return table


@lru_cache(maxsize=None)
def fit_reference(model: str, start: float) -> tuple:
    return oracle.fit_ref(model, oracle.grid(start))


def _rational(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _json_sig(obj):
    return (obj["handles"], obj["crosscaps"], tuple(obj["cone_points"]),
            tuple(tuple(b) for b in obj["mirror_boundaries"]))


def check_scan_output(kind: str, bound: int, payload) -> str | None:
    got = []
    for pair in payload:
        c = _rational(pair["c"])
        got.append((*sorted((pair["sig_a"], pair["sig_b"])), (c.numerator, c.denominator)))
    got.sort()
    want = list(scan_pairs(kind, bound))
    if got != want:
        return f"scan {kind}@{bound}: {len(got)} pairs, reference has {len(want)}"
    return None


def check_invert_output(op, payload) -> str | None:
    target = Fraction(op["target"])
    got = sorted(oracle.render(_json_sig(s)) for s in payload)
    want = sorted(oracle.render(s) for s in roster_c_table(op["class"], op["bound"]).get(target, ()))
    if got != want:
        return f"c_preimage({op['class']}@{op['bound']}, {target}) = {got}, reference {want}"
    return None


def _check_verify_report(model: str, start: float, report, strict: bool) -> str | None:
    """A verify_model report: predicted values, fitted values, error fields.

    strict: the grid starts at 1e-3, where every model's fit must match its
    prediction within FIT_1E3_TOL. On the default grid the Klein glide term
    moves the fit; there the fit is held to the least squares of the exact
    trace instead, and the miss against the prediction is a diagnostic.
    """
    if set(report) != {"-1", "-0.5", "0"}:
        return f"verify {model}: degree keys {sorted(report)}"
    reference = fit_reference(model, start)
    for key, pred, ref in zip(("-1", "-0.5", "0"), oracle.predicted(model), reference):
        rec = report[key]
        if set(rec) != {"fitted", "predicted", "abs_err", "rel_err"}:
            return f"verify {model} deg {key}: fields {sorted(rec)}"
        fitted = rec["fitted"]
        if not _close(rec["predicted"], pred, COEF_RTOL):
            return f"verify {model} deg {key}: predicted {rec['predicted']!r}, reference {pred!r}"
        if not _close(fitted, ref, FIT_REF_TOL):
            return f"verify {model} deg {key}: fitted {fitted!r}, reference least squares {ref!r}"
        if strict and abs(fitted - pred) > FIT_1E3_TOL:
            return f"verify {model} deg {key} on the 1e-3 grid: |fitted - predicted| = {abs(fitted - pred):.3e}"
        if not _close(rec["abs_err"], abs(fitted - rec["predicted"]), 1e-9):
            return f"verify {model} deg {key}: abs_err {rec['abs_err']!r} inconsistent"
    return None


def check_spectra(op, output) -> str | None:
    kind = op["kind"]
    if kind == "trace":
        if not isinstance(output, list) or len(output) != len(oracle.MODELS):
            return f"trace t={op['t']!r}: output {output!r}"
        for model, value in zip(oracle.MODELS, output):
            err = oracle.rel_err(value, oracle.trace_ref(model, op["t"]))
            if not err <= TRACE_RTOL:
                return f"heat_trace({model}, {op['t']!r}) rel err {err:.3e}"
        return None
    if kind == "verify":
        return _check_verify_report(op["model"], op["start"], output, strict=op["grid"] == "1e-3")
    if kind == "oracle":
        err = oracle.rel_err(output, oracle.trace_ref(op["model"], op["t"]))
        if not err <= ORACLE_TOL:
            return f"brute_force_trace({op['model']}, {op['t']!r}, {op['cutoff']:.6g}) rel err {err:.3e}"
        return None
    return f"unknown spectra op {kind!r}"


def trace_errors(op, output) -> list:
    """Relative errors of a spectra trace op's values (for max_rel_err)."""
    return [oracle.rel_err(v, oracle.trace_ref(m, op["t"])) for m, v in zip(oracle.MODELS, output)]


# Largest order `orbheat tables` instantiates the parameterized rows at.
TABLES_MAX_ORDER = 12


@lru_cache(maxsize=None)
def golden_rows_off(which: int) -> list:
    """Golden rows of orbheat.tables that differ from the oracle's closed forms.

    `orbheat tables` prints only the rows its recomputation disagrees with,
    so its output carries no computed values. This holds the rows the
    program compares against to the oracle: a golden table that drifted
    together with the recomputation fails here. A program that skipped the
    recomputation and printed [] would still pass.
    """
    from orbheat import tables

    rows = []  # (notation, column, golden value, oracle value)
    if which == 1:
        rows += [(n, "deg0", v, oracle.deg0(oracle.parse(n))) for n, v in tables.TABLE1_FIXED]
        for template, formula in tables.TABLE1_FAMILIES:
            for m in range(2, TABLES_MAX_ORDER + 1):
                orders = [(m, n) for n in range(m, TABLES_MAX_ORDER + 1)] if "{n}" in template else [(m,)]
                for args in orders:
                    n = template.format(m=args[0], n=args[-1])
                    rows.append((n, "deg0", formula(*args), oracle.deg0(oracle.parse(n))))
    else:
        template, chi_formula, c_formula = tables.TABLE2_FAMILY
        table = list(tables.TABLE2_FIXED) + [
            (template.format(m=m), chi_formula(m), c_formula(m)) for m in range(2, TABLES_MAX_ORDER + 1)]
        for n, chi, c in table:
            s = oracle.parse(n)
            rows += [(n, "chi", chi, oracle.chi_value(s)), (n, "c", c, oracle.c_value(s))]
    return [(n, col, str(v), str(oracle.frac(ref))) for n, col, v, ref in rows if v != oracle.frac(ref)]


def check_cli(op, code: int, stdout: str, stderr: str) -> str | None:
    """Exit code, JSON schema and values of one `orbheat` invocation.

    Every kind's values are compared with the oracle; for `tables`, whose
    output is only a mismatch list, see golden_rows_off.
    """
    kind = op["kind"]
    if kind == "malformed":
        want = f"(at position {op['position']})"
        if code != 1 or want not in stderr:
            return f"malformed {op['argv'][1]!r}: exit {code}, stderr {stderr.strip()[-120:]!r}, want {want}"
        return None
    if code != 0:
        return f"{' '.join(op['argv'][:3])}: exit {code}: {stderr.strip()[-200:]}"
    try:
        payload = json.loads(stdout)
        return _check_payload(op, payload)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"{kind}: malformed output ({type(exc).__name__}: {exc})"


def _check_payload(op, payload) -> str | None:
    kind = op["kind"]
    if kind == "parse":
        want = oracle.to_json(op["sig"])
        return None if payload == want else f"parse: {payload}, reference {want}"
    if kind in ("chi", "c"):
        value = (oracle.chi_value if kind == "chi" else oracle.c_value)(op["sig"])
        want = oracle.rational_json(value)
        return None if payload == want else f"{kind} {oracle.render(op['sig'])}: {payload}, reference {want}"
    if kind == "expansion":
        want = oracle.expansion(op["sig"], op["K"], op["area"], op["L"])
        if set(payload) != set(want):
            return f"expansion keys {sorted(payload)}"
        for key, ref in want.items():
            ok = payload[key] == ref if key == "deg_0" else _close(payload[key], ref, COEF_RTOL)
            if not ok:
                return f"expansion {oracle.render(op['sig'])} {key}: {payload[key]!r}, reference {ref!r}"
        return None
    if kind in ("classify-spherical", "classify-positive-zero"):
        rule = oracle.spherical_verdict if kind == "classify-spherical" else oracle.positive_zero_verdict
        want = {"verdict": rule(*op["pair"])}
        return None if payload == want else f"{kind} {op['argv'][4:6]}: {payload}, reference {want}"
    if kind == "classify-pillow-negative":
        negative, positive = oracle.pillow_negative_sides(Fraction(op["c"]))
        if set(payload) != {"distinguished", "negative_member", "positive_member"}:
            return f"pillow-negative keys {sorted(payload)}"
        for side, members in (("negative_member", negative), ("positive_member", positive)):
            got = payload[side]
            names = {oracle.render(s) for s in members}
            if (got is None) != (not names) or (got is not None and got not in names):
                return f"pillow-negative c={op['c']} {side}: {got!r}, reference {sorted(names)}"
        if payload["distinguished"] is not (not (negative and positive)):
            return f"pillow-negative c={op['c']}: distinguished {payload['distinguished']}"
        return None
    if kind == "trace":
        if set(payload) != {"model", "t", "value"} or payload["model"] != op["model"]:
            return f"trace payload {payload}"
        err = oracle.rel_err(payload["value"], oracle.trace_ref(op["model"], op["t"]))
        return None if err <= TRACE_RTOL else f"trace {op['model']} t={op['t']!r}: rel err {err:.3e}"
    if kind == "fit":
        if set(payload) != {"model", "coefficients", "residual", "condition"}:
            return f"fit keys {sorted(payload)}"
        coeffs = payload["coefficients"]
        if set(coeffs) != {"-1", "-0.5", "0"}:
            return f"fit degree keys {sorted(coeffs)}"
        for key, ref in zip(("-1", "-0.5", "0"), fit_reference(op["model"], 1e-2)):
            if not _close(coeffs[key], ref, FIT_REF_TOL):
                return f"fit {op['model']} deg {key}: {coeffs[key]!r}, reference least squares {ref!r}"
        if not (payload["residual"] >= 0 and payload["condition"] >= 1):
            return f"fit {op['model']}: residual {payload['residual']!r}, condition {payload['condition']!r}"
        return None
    if kind == "verify":
        return _check_verify_report(op["model"], 1e-2, payload, strict=False)
    if kind == "tables":
        off = golden_rows_off(op["which"])
        if off:
            return f"tables {op['which']}: golden rows differ from the closed form: {off[:3]}"
        return None if payload == [] else f"tables {op['which']}: {len(payload)} mismatches"
    if kind == "scan":
        return check_scan_output(op["class"], op["bound"], payload)
    if kind == "invert":
        return check_invert_output(op, payload)
    return f"unknown query kind {kind!r}"
