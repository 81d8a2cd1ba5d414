"""Command-line front end.

Subcommands: parse, chi, c, expansion, classify, scan, trace, fit,
verify, tables.  Every subcommand takes --format json|text (text is the
default).  Exit codes: 0 success, 1 parse/validation failure (message
with position on stderr) or an output pipe its reader closed (nothing on
stderr), 2 Gauss-Bonnet violation, 3 golden-table mismatch.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only numbers like -5 and -.5 as option values and
        # reads "-1/4", "-1e-3" or "-inf" as an unknown option, so that the
        # option before it lacks its value.  This matcher also takes negative
        # fractions, exponent forms and the non-finite words float() reads.
        self._negative_number_matcher = re.compile(
            r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$"
        )

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


# Each subcommand imports the orbheat modules it calls inside its _cmd_*
# function, so a run loads only those: `c` loads notation and signature,
# only expansion and verify load heat, and only trace, fit and verify load
# flat.  For the same reason the values of flat.FlatModel and
# classify.ClassKind are written out here, in order.
_MODEL_NAMES = ("torus", "klein", "pillowcase", "square", "mirror-torus")
_CLASS_NAMES = ("teardrops-footballs", "pillows", "class-c", "spherical")
_PAIR_CLASSIFIERS = ("spherical", "positive-zero", "pillow-negative")


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
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_parse(args) -> int:
    from .notation import parse, render
    from .signature import signature_to_json

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
    from .notation import parse
    from .signature import _text, euler_characteristic, rational_to_json

    value = euler_characteristic(parse(args.notation))
    _emit(args, rational_to_json(value), [_text(value)])
    return 0


def _cmd_c(args) -> int:
    from .notation import parse
    from .signature import _text, rational_to_json, spectral_c

    value = spectral_c(parse(args.notation))
    _emit(args, rational_to_json(value), [_text(value)])
    return 0


def _cmd_expansion(args) -> int:
    from .heat import GaussBonnetViolation, MetricData, _default_area, full_expansion
    from .notation import parse
    from .signature import euler_characteristic

    sig = parse(args.notation)
    K = args.curvature
    # expansion is the one subcommand that can meet a Gauss-Bonnet
    # violation, so it maps that error to its exit code, 2, itself.
    try:
        if args.area is not None:
            area = args.area
        elif K != 0:
            area = _default_area(euler_characteristic(sig), K)
        else:
            raise ValueError("--area is required when the curvature is 0")
        metric = MetricData(curvature=K, area=area, mirror_length=args.mirror_length)
        expansion = full_expansion(sig, metric)
    except GaussBonnetViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Each format refuses what it cannot write, so only the requested one is built.
    if args.format == "json":
        _emit(args, expansion.to_json(), ())
    else:
        _emit(args, None, [expansion.to_text()])
    return 0


def _cmd_classify(args) -> int:
    from .classify import pillow_negative_vs_rest, positive_vs_zero_chi, spherical_distinguish
    from .notation import parse, render

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
    from .classify import ClassKind, OrbifoldClass, injectivity_scan, roster_size
    from .notation import render

    cls = OrbifoldClass(ClassKind(args.class_name), args.bound)
    pairs = injectivity_scan(cls)
    # Either format renders every signature, so only the requested one is built.
    if args.format == "json":
        _emit(args, [p.to_json() for p in pairs], ())
        return 0
    members = roster_size(cls)
    if pairs:
        text = [
            f"{render(p.sig_a)} ~ {render(p.sig_b)}  c={p.c}" for p in pairs
        ]
        text.append(f"{len(pairs)} collision pair(s) among {members} members")
    else:
        text = [f"no collisions among {members} members"]
    _emit(args, None, text)
    return 0


def _cmd_trace(args) -> int:
    from .flat import FlatModel, heat_trace

    model = FlatModel(args.model)
    value = heat_trace(model, args.t)
    _emit(
        args,
        {"model": model.value, "t": args.t, "value": value},
        [repr(value)],
    )
    return 0


def _cmd_fit(args) -> int:
    from .flat import FlatModel, degree_label, fit_expansion, sample_trace

    model = FlatModel(args.model)
    fit = fit_expansion(sample_trace(model))
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
    from .flat import FlatModel, verify_model

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
    from .tables import verify_table1, verify_table2

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed reader shows here, not at exit
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointing it at
        # devnull keeps that flush from raising once more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
