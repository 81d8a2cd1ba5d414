"""The program's cosecant closed forms against direct evaluation.

The closed forms of sum_j csc^2(pi j/m) and sum_j csc^4(pi j/m) live only
inside the program's singular-stratum terms: a cone of order m adds
(m^2-1)/m to c - 2 chi and K (m^4+10m^2-11)/(360m) to the degree-1
coefficient, and a corner of order n adds half of each.  closed_forms
reads the two sums back out of spectral_c, euler_characteristic and
coefficient_one, once through a cone and once through a corner.
cosecant_sum_numeric is the independent route: it sums the cosecants term
by term and shares no code with the program.  Criterion 3 imports it from
here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from orbheat.heat import MetricData, coefficient_one, spectral_c
from orbheat.signature import OrbifoldSignature, euler_characteristic

SPHERE = OrbifoldSignature()
UNIT_SPHERE = MetricData(curvature=1, area=4 * math.pi)


def cosecant_sum_numeric(m: int, power: int) -> float:
    """Direct numeric sum_{j=1}^{m-1} csc^power(pi j / m).

    Terms are accumulated with compensated summation (math.fsum).  The
    sine argument is folded to [0, pi/2] using the exact symmetry
    sin(pi j / m) = sin(pi (m - j) / m) so that terms near j = m-1 do not
    lose accuracy to cancellation in pi - pi*j/m.
    """
    terms = (
        math.sin(math.pi * min(j, m - j) / m) ** -power for j in range(1, m)
    )
    return math.fsum(terms)


def closed_forms(m):
    """[(csc^2 sum, csc^4 sum) from a cone of order m, the same from a corner].

    An order-1 cone or corner is a smooth point, so m = 1 reads the sums
    off the sphere and the disk, where both are 0.
    """
    orders = (m,) if m > 1 else ()
    out = []
    for sig, weight in (
        (OrbifoldSignature(cone_points=orders), m),
        (OrbifoldSignature(mirror_boundaries=(orders,)), 2 * m),
    ):
        csc2 = weight * (spectral_c(sig) - 2 * euler_characteristic(sig)) / 3
        degree_one = coefficient_one(sig, UNIT_SPHERE) - coefficient_one(SPHERE, UNIT_SPHERE)
        out.append((csc2, 8 * weight * degree_one))
    return out


# === Closed-form goldens ===

def test_closed_form_goldens():
    csc2 = {1: 0, 2: 1, 3: Fraction(8, 3), 4: 5, 12: Fraction(143, 3)}
    csc4 = {
        1: 0,
        2: 1,
        3: Fraction(32, 9),  # (81 + 90 - 11)/45
        4: 9,
        5: Fraction(96, 5),  # (625 + 250 - 11)/45
    }
    for m, want in csc2.items():
        for two, _ in closed_forms(m):
            assert two == want
    for m, want in csc4.items():
        for _, four in closed_forms(m):
            assert four == pytest.approx(float(want), rel=1e-12, abs=1e-15)


def test_closed_forms_are_the_stated_polynomials():
    for m in range(1, 200):
        for two, four in closed_forms(m):
            assert two == Fraction(m * m - 1, 3)
            assert four == pytest.approx((m**4 + 10 * m * m - 11) / 45, rel=1e-12, abs=1e-15)


def test_numeric_goldens():
    # Direct float evaluation of sum over j of csc(pi j / m)^power.
    assert cosecant_sum_numeric(1, 2) == 0.0
    assert cosecant_sum_numeric(1, 4) == 0.0
    assert abs(cosecant_sum_numeric(2, 2) - 1.0) < 1e-14
    assert abs(cosecant_sum_numeric(3, 2) - 8.0 / 3.0) < 1e-13
    # The order-4 power-4 sum is exactly 9: csc^4(pi/4) + csc^4(pi/2)
    # + csc^4(3 pi/4) = 4 + 1 + 4.
    assert abs(cosecant_sum_numeric(4, 4) - 9.0) < 1e-12


def test_order_four_power_four_is_nine_not_ten():
    # Freeze the value: a careless reading of csc(pi/4)^4 as 2^2 + 2^2 + 2
    # would give 10; the true sum is 9.
    assert round(cosecant_sum_numeric(4, 4)) == 9
    for _, four in closed_forms(4):
        assert four == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("m", list(range(1, 80)) + [100, 137, 256, 499, 500])
def test_closed_form_matches_numeric(m):
    for form in closed_forms(m):
        for power, closed in zip((2, 4), form):
            numeric = cosecant_sum_numeric(m, power)
            assert abs(numeric - float(closed)) <= 1e-9 * (1.0 + float(closed))


def test_symmetry_of_summand():
    # Terms pair up as j <-> m - j; the implementation folds them to the
    # first half for accuracy, which must not change the value.
    for m in (5, 8, 13):
        naive = sum(math.sin(math.pi * j / m) ** -4 for j in range(1, m))
        assert abs(cosecant_sum_numeric(m, 4) - naive) <= 1e-9 * (1.0 + naive)
