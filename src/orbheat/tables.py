"""Golden tables of exact spectral constants, and their recomputation.

Two reference tables are embedded as exact rationals, transcribed once:

  * Table 1: the degree-0 heat coefficient for every closed 2-orbifold
    with chi >= 0, as closed forms in the orders for the parameterized
    families plus the finitely many fixed shapes.
  * Table 2: (chi, c) for the twelve named triangular pillows, where
    c = 12 * degree-0 coefficient.

verify_table1 / verify_table2 recompute every entry from the signature
machinery and report mismatches; an empty report is the reproduction
check the CLI's `tables` subcommand exposes.  Every entry is topological,
so this module needs notation and signature only, never heat.
"""

from __future__ import annotations

from fractions import Fraction

from .notation import parse
from .signature import degree_zero_term, euler_characteristic, spectral_c


# Largest order at which verify_table1 and verify_table2 instantiate the
# parameterized rows; fixed, not an option.
MAX_ORDER = 12


def _q(num, den=1) -> Fraction:
    return Fraction(num, den)


# Parameterized families: notation template -> degree-0 constant as a
# function of the order(s).  Two-parameter rows take 2 <= m <= n.
TABLE1_FAMILIES = (
    ("{m}", lambda m: _q(2 + m, 12) + _q(1, 12 * m)),
    ("*{m}", lambda m: _q(2 + m, 24) + _q(1, 24 * m)),
    ("{m},{n}", lambda m, n: _q(m + n, 12) + _q(1, 12 * m) + _q(1, 12 * n)),
    ("*{m},{n}", lambda m, n: _q(m + n, 24) + _q(1, 24 * m) + _q(1, 24 * n)),
    ("{m}×", lambda m: _q(m, 12) + _q(1, 12 * m)),
    ("{m}*", lambda m: _q(m, 12) + _q(1, 12 * m)),
    ("2,2,{m}", lambda m: _q(3 + m, 12) + _q(1, 12 * m)),
    ("*2,2,{m}", lambda m: _q(3 + m, 24) + _q(1, 24 * m)),
    ("2,*{m}", lambda m: _q(3 + m, 24) + _q(1, 24 * m)),
)

# Fixed rows: canonical notation -> degree-0 constant.
TABLE1_FIXED = (
    ("2,3,3", _q(43, 72)),
    ("*2,3,3", _q(43, 144)),
    ("3,*2", _q(43, 144)),
    ("2,3,4", _q(97, 144)),
    ("*2,3,4", _q(97, 288)),
    ("2,3,5", _q(271, 360)),
    ("*2,3,5", _q(271, 720)),
    ("o", _q(0)),
    ("××", _q(0)),
    ("*,*", _q(0)),
    ("*×", _q(0)),
    ("2,2,2,2", _q(1, 2)),
    ("*2,2,2,2", _q(1, 4)),
    ("2,*2,2", _q(1, 4)),
    ("2,2,*", _q(1, 4)),
    ("2,2×", _q(1, 4)),
    ("2,4,4", _q(3, 4)),
    ("*2,4,4", _q(3, 8)),
    ("4,*2", _q(3, 8)),
    ("3,3,3", _q(2, 3)),
    ("*3,3,3", _q(1, 3)),
    ("3,*3", _q(1, 3)),
    ("2,3,6", _q(5, 6)),
    ("*2,3,6", _q(5, 12)),
)

# The twelve named triangular pillows: notation -> (chi, c).
TABLE2_FIXED = (
    ("2,2,2", _q(1, 2), _q(11, 2)),
    ("2,3,3", _q(1, 6), _q(43, 6)),
    ("2,3,4", _q(1, 12), _q(97, 12)),
    ("2,3,5", _q(1, 30), _q(271, 30)),
    ("3,3,3", _q(0), _q(8)),
    ("2,4,4", _q(0), _q(9)),
    ("2,3,6", _q(0), _q(10)),
    ("3,3,4", _q(-1, 12), _q(107, 12)),
    ("3,4,4", _q(-1, 6), _q(59, 6)),
    ("3,3,5", _q(-2, 15), _q(148, 15)),
    ("2,4,5", _q(-1, 20), _q(199, 20)),
)

# One parameterized Table 2 row: O(2,2,m) -> (1/m, 3 + m + 1/m).
TABLE2_FAMILY = (
    "2,2,{m}",
    lambda m: _q(1, m),
    lambda m: _q(3 + m) + _q(1, m),
)


def _mismatch(table, notation, column, expected, computed) -> dict:
    return {
        "table": table,
        "notation": notation,
        "column": column,
        "expected": str(expected),
        "computed": str(computed),
    }


def verify_table1() -> list:
    """Recompute every Table 1 entry; returns a list of mismatch records.

    Parameterized rows are instantiated for all orders up to MAX_ORDER.
    """
    rows = list(TABLE1_FIXED)
    orders = range(2, MAX_ORDER + 1)
    for template, formula in TABLE1_FAMILIES:
        if "{n}" in template:
            rows.extend(
                (template.format(m=m, n=n), formula(m, n))
                for m in orders
                for n in range(m, MAX_ORDER + 1)
            )
        else:
            rows.extend((template.format(m=m), formula(m)) for m in orders)
    report = []
    for notation, expected in rows:
        computed = degree_zero_term(parse(notation))
        if computed != expected:
            report.append(_mismatch(1, notation, "deg0", expected, computed))
    return report


def verify_table2() -> list:
    """Recompute every Table 2 (chi, c) entry; returns mismatch records."""
    report = []
    rows = [(n, chi, c) for n, chi, c in TABLE2_FIXED]
    template, chi_formula, c_formula = TABLE2_FAMILY
    rows.extend(
        (template.format(m=m), chi_formula(m), c_formula(m))
        for m in range(2, MAX_ORDER + 1)
    )
    for notation, chi_expected, c_expected in rows:
        sig = parse(notation)
        chi_computed = euler_characteristic(sig)
        c_computed = spectral_c(sig)
        if chi_computed != chi_expected:
            report.append(_mismatch(2, notation, "chi", chi_expected, chi_computed))
        if c_computed != c_expected:
            report.append(_mismatch(2, notation, "c", c_expected, c_computed))
    return report
