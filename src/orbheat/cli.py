"""Command-line front end.

Subcommands: parse, chi, c, expansion, classify, scan, trace, fit,
verify, tables.  Every subcommand takes --format json|text (text is the
default).  Exit codes: 0 success, 1 parse/validation failure (message
with position on stderr), 2 Gauss-Bonnet violation, 3 golden-table
mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .classify import (
    ClassKind,
    OrbifoldClass,
    injectivity_scan,
    pillow_negative_vs_rest,
    positive_vs_zero_chi,
    roster_size,
    spherical_distinguish,
)
from .flat import (
    FIT_DEGREES,
    FlatModel,
    degree_label,
    fit_expansion,
    heat_trace,
    sample_trace,
    verify_model,
)
from .heat import (
    GaussBonnetViolation,
    MetricData,
    full_expansion,
    spectral_c,
)
from .notation import parse, render
from .signature import euler_characteristic, rational_to_json, signature_to_json
from .tables import verify_table1, verify_table2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse's stock usage-error exit code is 2, which this tool reserves
    # for Gauss-Bonnet violations; argument problems are validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    # argparse reports ValueError and TypeError from a type as usage errors,
    # but Fraction("1/0") raises ZeroDivisionError, which it would let through.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


_MODEL_NAMES = tuple(m.value for m in FlatModel)
_CLASS_NAMES = tuple(k.value for k in ClassKind)
_PAIR_CLASSIFIERS = ("spherical", "positive-zero", "pillow-negative")

# Largest roster `scan` accepts.  Grouping keeps one dict entry per distinct
# c, so this caps the scan's memory (a few hundred MB) and run time (seconds).
# The exact pillow search behind `classify --class pillow-negative` and
# classify.c_preimage is capped the same way, by classify.PILLOW_ORDER_LIMIT,
# and the flat-model multiplicity oracle by flat.MULTIPLICITY_SHELL_LIMIT;
# these three limits are fixed, not options.
SCAN_MEMBER_LIMIT = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    shared = _ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    parser = _ArgumentParser(prog="orbheat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("parse", parents=[shared], help="canonical signature of a notation")
    p.add_argument("notation")

    p = sub.add_parser("chi", parents=[shared], help="exact Euler characteristic")
    p.add_argument("notation")

    p = sub.add_parser("c", parents=[shared], help="exact spectral constant c")
    p.add_argument("notation")

    p = sub.add_parser("expansion", parents=[shared], help="heat expansion coefficients")
    p.add_argument("notation")
    p.add_argument("--curvature", type=_fraction, required=True, help="constant curvature K")
    p.add_argument("--area", type=float, default=None, help="area (default 2 pi chi / K)")
    p.add_argument("--mirror-length", type=float, default=0.0, help="total mirror length")

    p = sub.add_parser("classify", parents=[shared], help="pairwise distinguishability")
    p.add_argument("--class", dest="class_name", choices=_PAIR_CLASSIFIERS, required=True)
    p.add_argument("--pair", nargs=2, metavar=("SIG_A", "SIG_B"))
    p.add_argument("--c-value", type=_fraction, default=None, help="c value for pillow-negative")

    p = sub.add_parser("scan", parents=[shared], help="c-collision scan over a class")
    p.add_argument("--class", dest="class_name", choices=_CLASS_NAMES, required=True)
    p.add_argument("--bound", type=int, default=500, help="max order (default 500)")

    p = sub.add_parser("trace", parents=[shared], help="flat-model heat trace at time t")
    p.add_argument("--model", choices=_MODEL_NAMES, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("fit", parents=[shared], help="least-squares expansion fit")
    p.add_argument("--model", choices=_MODEL_NAMES, required=True)

    p = sub.add_parser("verify", parents=[shared], help="fit vs predicted coefficients")
    p.add_argument("--model", choices=_MODEL_NAMES, required=True)

    p = sub.add_parser("tables", parents=[shared], help="recompute golden tables")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)

    return parser


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_parse(args) -> int:
    sig = parse(args.notation)
    _emit(
        args,
        signature_to_json(sig),
        [
            f"notation: {render(sig)}",
            f"handles: {sig.handles}",
            f"crosscaps: {sig.crosscaps}",
            f"cone_points: {list(sig.cone_points)}",
            f"mirror_boundaries: {[list(c) for c in sig.mirror_boundaries]}",
        ],
    )
    return 0


def _cmd_chi(args) -> int:
    value = euler_characteristic(parse(args.notation))
    _emit(args, rational_to_json(value), [str(value)])
    return 0


def _cmd_c(args) -> int:
    value = spectral_c(parse(args.notation))
    _emit(args, rational_to_json(value), [str(value)])
    return 0


def _cmd_expansion(args) -> int:
    sig = parse(args.notation)
    chi = euler_characteristic(sig)
    K = args.curvature
    if args.area is not None:
        area = float(args.area)
    elif K != 0:
        area = 2.0 * math.pi * float(chi) / float(K)
        if area <= 0:
            raise GaussBonnetViolation(chi, K, area, area)
    else:
        raise ValueError("--area is required when the curvature is 0")
    metric = MetricData(curvature=K, area=area, mirror_length=args.mirror_length)
    expansion = full_expansion(sig, metric)
    text = [
        f"deg -1: {expansion.as_float(-1)!r}",
        f"deg -1/2: {expansion.as_float(Fraction(-1, 2))!r}",
        f"deg 0: {expansion.degree_zero}",
        f"deg 1/2: {expansion.as_float(Fraction(1, 2))!r}",
        f"deg 1: {expansion[1]}",
    ]
    _emit(args, expansion.to_json(), text)
    return 0


def _cmd_classify(args) -> int:
    if args.class_name == "pillow-negative":
        if args.c_value is None:
            raise ValueError("--c-value is required for --class pillow-negative")
        result = pillow_negative_vs_rest(args.c_value)
        payload = {
            "distinguished": result.distinguished,
            "negative_member": render(result.negative_member)
            if result.negative_member
            else None,
            "positive_member": render(result.positive_member)
            if result.positive_member
            else None,
        }
        verdict = "Distinguished" if result.distinguished else "NotDistinguished"
        _emit(args, payload, [verdict])
        return 0
    if args.pair is None:
        raise ValueError(f"--pair is required for --class {args.class_name}")
    a, b = (parse(text) for text in args.pair)
    if args.class_name == "spherical":
        verdict = spherical_distinguish(a, b)
    else:
        verdict = positive_vs_zero_chi(a, b)
    _emit(args, {"verdict": verdict.value}, [verdict.value])
    return 0


def _cmd_scan(args) -> int:
    cls = OrbifoldClass(ClassKind(args.class_name), args.bound)
    members = roster_size(cls, SCAN_MEMBER_LIMIT)
    if members > SCAN_MEMBER_LIMIT:
        raise ValueError(
            f"class {cls.kind.value} at bound {cls.bound} has more than "
            f"{SCAN_MEMBER_LIMIT} members; scan stops at that limit"
        )
    pairs = injectivity_scan(cls)
    if pairs:
        text = [
            f"{render(p.sig_a)} ~ {render(p.sig_b)}  c={p.c}" for p in pairs
        ]
        text.append(f"{len(pairs)} collision pair(s) among {members} members")
    else:
        text = [f"no collisions among {members} members"]
    _emit(args, [p.to_json() for p in pairs], text)
    return 0


def _cmd_trace(args) -> int:
    model = FlatModel(args.model)
    value = heat_trace(model, args.t)
    _emit(
        args,
        {"model": model.value, "t": args.t, "value": value},
        [repr(value)],
    )
    return 0


def _cmd_fit(args) -> int:
    model = FlatModel(args.model)
    fit = fit_expansion(sample_trace(model), FIT_DEGREES)
    payload = {
        "model": model.value,
        "coefficients": {
            degree_label(d): v for d, v in fit.coefficients.items()
        },
        "residual": fit.residual,
        "condition": fit.condition,
    }
    text = [
        f"deg {degree_label(d)}: {v!r}" for d, v in fit.coefficients.items()
    ]
    text.append(f"residual: {fit.residual:.3e}")
    text.append(f"condition: {fit.condition:.3e}")
    _emit(args, payload, text)
    return 0


def _cmd_verify(args) -> int:
    model = FlatModel(args.model)
    report = verify_model(model)
    text = []
    for degree, record in report.items():
        text.append(
            f"deg {degree}: fitted={record['fitted']!r} "
            f"predicted={record['predicted']!r} rel_err={record['rel_err']:.3e}"
        )
    _emit(args, report, text)
    return 0


def _cmd_tables(args) -> int:
    report = verify_table1() if args.which == 1 else verify_table2()
    if report:
        text = [
            f"table {r['table']} {r['notation']} [{r['column']}]: "
            f"expected {r['expected']}, computed {r['computed']}"
            for r in report
        ]
        _emit(args, report, text)
        return 3
    _emit(args, [], [f"table {args.which}: all entries match"])
    return 0


_DISPATCH = {
    "parse": _cmd_parse,
    "chi": _cmd_chi,
    "c": _cmd_c,
    "expansion": _cmd_expansion,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "trace": _cmd_trace,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _DISPATCH[args.subcommand](args)
    except GaussBonnetViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
