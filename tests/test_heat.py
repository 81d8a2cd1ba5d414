"""Heat-trace expansion coefficients and the spectral constant c."""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbheat.heat import (
    DEGREES,
    GaussBonnetViolation,
    _default_area,
    HeatExpansion,
    MetricData,
    coefficient_half,
    coefficient_minus_half,
    coefficient_minus_one,
    coefficient_one,
    degree_zero_term,
    full_expansion,
    has_half_integer_terms,
)
from orbheat.notation import parse
from orbheat.signature import OrbifoldSignature, c_ratio, euler_characteristic, spectral_c

SQRT_PI = math.sqrt(math.pi)


def sig(handles=0, crosscaps=0, cones=(), boundaries=()):
    return OrbifoldSignature(
        handles=handles,
        crosscaps=crosscaps,
        cone_points=tuple(cones),
        mirror_boundaries=tuple(tuple(b) for b in boundaries),
    )


def gb_area(signature, K):
    return 2.0 * math.pi * float(euler_characteristic(signature)) / float(K)


# === One-time symbolic verification of the smooth degree-1 density ===

def test_smooth_degree_one_density_by_symbolic_tensor_calculus():
    """(1/360)(2|Riem|^2 - 2|Ric|^2 + 5 tau^2) = K^2 * 24/360 = K^2/15.

    Verified on the round sphere of radius a (K = 1/a^2) by computing the
    curvature tensors from the metric with no 2-d shortcuts.
    """
    import sympy as sp

    theta, phi, a = sp.symbols("theta phi a", positive=True)
    coords = (theta, phi)
    g = sp.Matrix([[a**2, 0], [0, a**2 * sp.sin(theta) ** 2]])
    ginv = g.inv()
    n = 2

    def christoffel(k, i, j):
        return sp.Rational(1, 2) * sum(
            ginv[k, l]
            * (
                sp.diff(g[j, l], coords[i])
                + sp.diff(g[i, l], coords[j])
                - sp.diff(g[i, j], coords[l])
            )
            for l in range(n)
        )

    gamma = [
        [[sp.simplify(christoffel(k, i, j)) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]

    def riemann_up(rho, sigma, mu, nu):
        term = sp.diff(gamma[rho][nu][sigma], coords[mu]) - sp.diff(
            gamma[rho][mu][sigma], coords[nu]
        )
        term += sum(
            gamma[rho][mu][lam] * gamma[lam][nu][sigma]
            - gamma[rho][nu][lam] * gamma[lam][mu][sigma]
            for lam in range(n)
        )
        return sp.simplify(term)

    Rup = [
        [[[riemann_up(r, s, m, v) for v in range(n)] for m in range(n)] for s in range(n)]
        for r in range(n)
    ]
    # Lower the first index.
    Rdown = [
        [
            [
                [
                    sp.simplify(sum(g[x, r] * Rup[r][s][m][v] for r in range(n)))
                    for v in range(n)
                ]
                for m in range(n)
            ]
            for s in range(n)
        ]
        for x in range(n)
    ]

    riem_sq = sp.simplify(
        sum(
            Rdown[x][s][m][v]
            * ginv[x, x2]
            * ginv[s, s2]
            * ginv[m, m2]
            * ginv[v, v2]
            * Rdown[x2][s2][m2][v2]
            for x in range(n)
            for s in range(n)
            for m in range(n)
            for v in range(n)
            for x2 in range(n)
            for s2 in range(n)
            for m2 in range(n)
            for v2 in range(n)
        )
    )
    ricci = [
        [sp.simplify(sum(Rup[m][i][m][j] for m in range(n))) for j in range(n)]
        for i in range(n)
    ]
    ric_sq = sp.simplify(
        sum(
            ricci[i][j] * ginv[i, i2] * ginv[j, j2] * ricci[i2][j2]
            for i in range(n)
            for j in range(n)
            for i2 in range(n)
            for j2 in range(n)
        )
    )
    tau = sp.simplify(sum(ginv[i, j] * ricci[i][j] for i in range(n) for j in range(n)))

    K = 1 / a**2
    assert sp.simplify(tau - 2 * K) == 0
    assert sp.simplify(riem_sq - 4 * K**2) == 0
    assert sp.simplify(ric_sq - 2 * K**2) == 0
    density = (2 * riem_sq - 2 * ric_sq + 5 * tau**2) / 360
    assert sp.simplify(density - K**2 / 15) == 0
    # Integrated over the sphere and divided by 4 pi, the smooth part of
    # the degree-1 coefficient is K^2 * area / (60 pi); for a = 1: 1/15.
    area = 4 * sp.pi * a**2
    assert sp.simplify(density * area / (4 * sp.pi) - K / 15 * a ** (-2) * a**2) == 0


def test_smooth_degree_one_matches_symbolic_result():
    sphere = sig()
    expansion = full_expansion(sphere, MetricData(1, 4 * math.pi))
    assert expansion[1] == Fraction(1, 15)
    # Scaling: radius a sphere has K = 1/a^2, area 4 pi a^2, deg 1 = 1/(15 a^2).
    expansion2 = full_expansion(sphere, MetricData(Fraction(1, 4), 16 * math.pi))
    assert expansion2[1] == Fraction(1, 60)


# === Cone-point local data ===
#
# The rotation kernel gives each rotation j of a cone of order m the
# weight b0 = 1/(4 sin^2(pi j/m)) at degree 0 and b1 = K/(8 sin^4(pi j/m))
# at degree 1.  Their sums I0 and I1 over j reach the program only through
# the cone's terms: I0 = m (c - 2 chi)/12 and I1 = m times the cone's
# share of coefficient_one.

UNIT_SPHERE = MetricData(1, 4 * math.pi)


def cone_I0(m):
    """Sum of b0 over the rotations, as c and chi give it; 0 for the order-1 (smooth) point."""
    s = sig(cones=(m,) if m > 1 else ())
    return m * (spectral_c(s) - 2 * euler_characteristic(s)) / 12


def cone_I1(m, metric):
    """Sum of b1 over the rotations, as coefficient_one gives it."""
    return m * (coefficient_one(sig(cones=(m,)), metric) - coefficient_one(sig(), metric))


def test_cone_b0_goldens():
    # rotations whose sines are known exactly: sin^2 = 1/4, 1/2, 3/4, 1
    exact = {
        2: [Fraction(1, 4)],
        3: [Fraction(1, 3)] * 2,
        4: [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)],
        6: [1, Fraction(1, 3), Fraction(1, 4), Fraction(1, 3), 1],
    }
    for m, weights in exact.items():
        for j, b0 in enumerate(weights, start=1):
            assert 1.0 / (4.0 * math.sin(math.pi * j / m) ** 2) == pytest.approx(b0, rel=1e-15)
        assert sum(weights) == cone_I0(m)


def test_cone_b1_goldens():
    exact = {
        2: [Fraction(1, 8)],
        3: [Fraction(2, 9)] * 2,
        4: [Fraction(1, 2), Fraction(1, 8), Fraction(1, 2)],
    }
    for m, weights in exact.items():
        for j, b1 in enumerate(weights, start=1):
            assert 1.0 / (8.0 * math.sin(math.pi * j / m) ** 4) == pytest.approx(b1, rel=1e-15)
        assert cone_I1(m, UNIT_SPHERE) == pytest.approx(sum(weights), rel=1e-13)
    flat = MetricData(0, 1.0)
    negative = MetricData(-2.0, 1.0)
    for m in range(2, 12):
        assert cone_I1(m, flat) == 0.0
        total = math.fsum(-2.0 / (8 * math.sin(math.pi * j / m) ** 4) for j in range(1, m))
        assert cone_I1(m, negative) == pytest.approx(total, rel=1e-12)


def test_cone_I0_goldens():
    assert cone_I0(1) == 0
    assert cone_I0(2) == Fraction(1, 4)
    assert cone_I0(6) == Fraction(35, 12)
    assert cone_I0(10) == Fraction(33, 4)


@pytest.mark.parametrize("m", list(range(2, 60)) + [120, 250, 499, 500])
def test_cone_I0_equals_b0_sum(m):
    total = math.fsum(1.0 / (4.0 * math.sin(math.pi * min(j, m - j) / m) ** 2) for j in range(1, m))
    assert abs(total - float(cone_I0(m))) <= 1e-9 * (1.0 + float(cone_I0(m)))


# === Degree zero and c ===

def test_degree_zero_goldens():
    assert degree_zero_term(sig(cones=(2, 3, 5))) == Fraction(271, 360)
    assert degree_zero_term(sig(handles=1)) == 0
    assert degree_zero_term(sig(crosscaps=2)) == 0
    assert degree_zero_term(sig(cones=(2, 2, 2, 2))) == Fraction(1, 2)
    assert degree_zero_term(sig()) == Fraction(1, 3)
    for m in range(2, 25):
        got = degree_zero_term(sig(cones=(2,), boundaries=((m,),)))
        assert got == Fraction(3 + m, 24) + Fraction(1, 24 * m)


def test_spectral_c_goldens():
    assert spectral_c(sig(cones=(2, 2))) == 5
    assert spectral_c(sig(cones=(3, 3, 3))) == 8
    assert spectral_c(sig(cones=(2, 3, 4))) == Fraction(97, 12)
    assert spectral_c(sig(cones=(2, 3, 5))) == Fraction(271, 30)
    for genus in range(6):
        assert spectral_c(sig(handles=genus)) == 4 - 4 * genus


def enumeration(orders=(2, 3, 9, 100)):
    import itertools

    for handles in range(3):
        for cones in itertools.combinations_with_replacement(orders, 2):
            yield sig(handles=handles, cones=cones)
        yield sig(handles=handles)
    for crosscaps in (1, 2):
        for m in orders:
            yield sig(crosscaps=crosscaps, cones=(m,))
    for m in orders:
        for n in orders:
            yield sig(cones=(m,), boundaries=((n, n),))
            yield sig(boundaries=((m, n),))


def test_c_is_twelve_times_degree_zero():
    for signature in enumeration():
        assert spectral_c(signature) == 12 * degree_zero_term(signature)


# The references below add one Fraction per stratum and share no code with
# the program's stratum walk.

def reference_chi(handles, crosscaps, cones, boundaries):
    """2 - 2h - x - b - sum (m-1)/m - sum (n-1)/(2n), term by term."""
    corners = [n for b in boundaries for n in b]
    chi = Fraction(2 - 2 * handles - crosscaps - len(boundaries))
    chi -= sum(Fraction(m - 1, m) for m in cones)
    chi -= sum(Fraction(n - 1, 2 * n) for n in corners)
    return chi


def reference_c(handles, crosscaps, cones, boundaries):
    """12 (chi/6 + sum (m^2-1)/(12m) + sum (n^2-1)/(24n)), term by term."""
    corners = [n for b in boundaries for n in b]
    total = reference_chi(handles, crosscaps, cones, boundaries) / 6
    total += sum(Fraction(m * m - 1, 12 * m) for m in cones)
    total += sum(Fraction(n * n - 1, 24 * n) for n in corners)
    return 12 * total


def reference_degree_one_sum(cones, boundaries):
    """sum (m^4+10m^2-11)/(360m) + sum (n^4+10n^2-11)/(720n), term by term."""
    corners = [n for b in boundaries for n in b]
    total = sum(Fraction(m**4 + 10 * m * m - 11, 360 * m) for m in cones)
    return total + sum(Fraction(n**4 + 10 * n * n - 11, 720 * n) for n in corners)


ORDERS = st.integers(min_value=2, max_value=10**4)


@settings(max_examples=300, deadline=None)
@given(
    handles=st.integers(min_value=0, max_value=4),
    crosscaps=st.integers(min_value=0, max_value=4),
    cones=st.lists(ORDERS, max_size=5),
    boundaries=st.lists(st.lists(ORDERS, max_size=4), max_size=3),
)
def test_spectral_c_matches_fraction_reference(handles, crosscaps, cones, boundaries):
    signature = sig(handles, crosscaps, cones, boundaries)
    expected = reference_c(handles, crosscaps, cones, boundaries)
    c = spectral_c(signature)
    assert type(c) is Fraction
    assert c == expected
    assert 12 * degree_zero_term(signature) == expected
    # The raw (unnormalized) counts and the signature give the same pair,
    # already in lowest terms with a positive denominator.
    pair = c_ratio(handles, crosscaps, cones, boundaries)
    assert pair == (expected.numerator, expected.denominator)
    assert pair == (c.numerator, c.denominator)
    assert pair[1] > 0 and math.gcd(*pair) == 1

    chi = euler_characteristic(signature)
    expected_chi = reference_chi(handles, crosscaps, cones, boundaries)
    assert type(chi) is Fraction
    assert chi == expected_chi
    # Degree 1 is K (chi/30 + singular sum) under Gauss-Bonnet; K = sign(chi)
    # keeps the area 2 pi chi / K positive.
    if expected_chi != 0:
        K = 1 if expected_chi > 0 else -1
        metric = MetricData(
            K,
            2.0 * math.pi * float(expected_chi) / K,
            mirror_length=1.0 if boundaries else 0.0,
        )
        expected_one = K * (expected_chi / 30 + reference_degree_one_sum(cones, boundaries))
        assert full_expansion(signature, metric)[1] == expected_one


def test_c_ratio_golden():
    assert c_ratio(0, 0, (2, 3, 5), ()) == (271, 30)
    assert c_ratio(0, 0, (2, 2, 2, 2), ()) == (6, 1)
    assert c_ratio(0, 0, (), ()) == (4, 1)
    assert c_ratio(2, 0, (), ()) == (-4, 1)
    assert c_ratio(0, 0, (), ((2, 2, 2, 2),)) == (3, 1)
    assert c_ratio(0, 1, (2,), ()) == (5, 2)


def test_orientable_specialization():
    # Without mirrors the corner sum drops and c = 2 chi + sum (m - 1/m).
    for signature in enumeration():
        if signature.mirror_boundaries:
            continue
        expected = 2 * euler_characteristic(signature) + sum(
            Fraction(m) - Fraction(1, m) for m in signature.cone_points
        )
        assert spectral_c(signature) == expected


def test_degree_zero_is_metric_independent():
    flat = sig(cones=(2, 2, 2, 2))
    one = full_expansion(flat, MetricData(0, 0.5))
    other = full_expansion(flat, MetricData(0, 7.25))
    assert one.degree_zero == other.degree_zero == Fraction(1, 2)


# === Individual coefficient maps ===

def test_coefficient_minus_one():
    assert coefficient_minus_one(MetricData(1, 4 * math.pi)) == pytest.approx(1.0)
    assert coefficient_minus_one(MetricData(0, 0.5)) == pytest.approx(1 / (8 * math.pi))
    assert coefficient_minus_one(MetricData(0, 0.25)) == pytest.approx(1 / (16 * math.pi))


def test_coefficient_minus_half():
    assert coefficient_minus_half(MetricData(0, 1.0)) == 0.0
    square_metric = MetricData(0, 0.25, mirror_length=2.0)
    assert coefficient_minus_half(square_metric) == pytest.approx(1 / (4 * SQRT_PI))
    unit = MetricData(0, 1.0, mirror_length=8 * SQRT_PI)
    assert coefficient_minus_half(unit) == pytest.approx(1.0)


def test_coefficient_half():
    assert coefficient_half(MetricData(0, 1.0, mirror_length=3.0)) == 0.0
    metric = MetricData(1, 4 * math.pi, mirror_length=2 * math.pi)
    assert coefficient_half(metric) == pytest.approx(SQRT_PI / 16)


def test_coefficient_half_where_2_k_l_overflows():
    # K L / (32 sqrt(pi)) is about 1.76e306, though 2 K L is past the float range.
    metric = MetricData(1, 1.0, mirror_length=1e308)
    assert coefficient_half(metric) == 1e308 / (32 * SQRT_PI)


@pytest.mark.parametrize(
    "curvature, mirror_length",
    [(3, 1e308), (10**300, 1e10), (-3, 1e308)],
    ids=["3-1e308", "10^300-1e10", "-3-1e308"],
)
def test_coefficient_half_where_k_l_overflows(curvature, mirror_length):
    # K L is past the float range, K L / (32 sqrt(pi)) is not.
    value = coefficient_half(MetricData(curvature, 1.0, mirror_length=mirror_length))
    assert value == curvature * (mirror_length / (32 * SQRT_PI))
    exact = mpmath.mpf(curvature) * mirror_length / (32 * mpmath.sqrt(mpmath.pi))
    assert value == pytest.approx(float(exact), rel=1e-15)


def test_coefficient_half_keeps_its_bits_where_k_l_is_finite():
    metric = MetricData(Fraction(7, 3), 1.0, mirror_length=1e300)
    assert coefficient_half(metric) == (7 / 3) * 1e300 / (32 * SQRT_PI)


@pytest.mark.parametrize(
    "curvature, mirror_length",
    [(-1, 0.0), (Fraction(-1, 4), 0.0), (-1e-300, 5e-324), (0, -0.0), (1, -0.0)],
    ids=["-1-0", "-1/4-0", "-1e-300-underflow", "0--0.0", "1--0.0"],
)
def test_zero_half_integer_coefficients_are_positive_zero(curvature, mirror_length):
    # K L is -0.0 at K < 0 and L = 0, or where it underflows; L itself may be -0.0.
    metric = MetricData(curvature, 1.0, mirror_length=mirror_length)
    for value in (coefficient_half(metric), coefficient_minus_half(metric)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_mirrorless_expansion_at_negative_curvature_prints_a_positive_zero():
    expansion = full_expansion(parse("2,3,7"), MetricData(-1, 2 * math.pi / 42))
    assert math.copysign(1.0, expansion.as_float(Fraction(1, 2))) == 1.0
    assert "deg 1/2: 0.0\n" in expansion.to_text()
    assert expansion.to_json()["deg_0.5"] == 0.0
    assert math.copysign(1.0, expansion.to_json()["deg_0.5"]) == 1.0


def test_coefficient_one_flat_is_zero():
    assert coefficient_one(sig(handles=1), MetricData(0, 1.0)) == 0.0
    assert coefficient_one(sig(cones=(2, 2, 2, 2)), MetricData(0, 0.5)) == 0.0


def test_coefficient_one_sphere_quotient():
    value = coefficient_one(sig(cones=(2, 3, 5)), MetricData(1, math.pi / 15))
    assert value == pytest.approx(7471 / 10800, rel=1e-12)


@pytest.mark.parametrize("curvature", [1e160, 1e300, Fraction(10) ** 200], ids=["1e160", "1e300", "10^200"])
def test_coefficient_one_where_k_squared_overflows(curvature):
    # K^2 is past the float range; at the Gauss-Bonnet area K^2 V / (60 pi)
    # is K chi / 30, and the coefficient K times its value at K = 1.
    area = 2 * math.pi / 30 / float(curvature)
    value = coefficient_one(sig(cones=(2, 3, 5)), MetricData(curvature, area))
    assert value == pytest.approx(float(curvature) * 7471 / 10800, rel=1e-12)


def test_coefficient_one_where_the_singular_sum_is_past_the_float_range():
    # A 120-digit cone order puts (m^4+10m^2-11)/(360m), the cone's degree-1
    # term at K = 1, near 1e357.
    m = int("7" * 120)
    signature = sig(cones=(2, 2, m))
    for curvature in (1, -1e-10):
        with pytest.raises(ValueError, match="^the degree 1 coefficient is past the float range$"):
            coefficient_one(signature, MetricData(curvature, 1.0))
    # A small K brings K times the sum back; K^2 V / (60 pi), near 5e-603,
    # is far below half an ulp of it.
    singular = Fraction(2 * (16 + 40 - 11), 2 * 360) + Fraction(m**4 + 10 * m * m - 11, 360 * m)
    assert coefficient_one(signature, MetricData(1e-300, 1.0)) == float(Fraction(1e-300) * singular)
    assert coefficient_one(signature, MetricData(0, 1.0)) == 0.0



def test_coefficient_one_is_never_infinite_where_its_float_terms_would_overflow():
    # K^2 V / (60 pi) is about -9e297 and K times the cone/corner sum
    # about -2.8e315, which a float sum returned as -inf.
    signature = sig(cones=(2, 3, 1000003))
    area = 2 * math.pi * float(euler_characteristic(signature)) / -1e300
    with pytest.raises(ValueError, match="^the degree 1 coefficient is past the float range$"):
        coefficient_one(signature, MetricData(-1e300, area))


def _oracle_degree_one_sum(s):
    """Sum of (m^4+10m^2-11)/(360m) over the cones and half of it over the corners."""
    def w(m):
        return Fraction(m**4 + 10 * m * m - 11, 360 * m)

    return sum(map(w, s.cone_points), Fraction(0)) + sum(
        (w(n) / 2 for b in s.mirror_boundaries for n in b), Fraction(0)
    )


# Orders up to 200 digits, and K = +-10^e, as a float or exact.
_DEGREE_ONE_ORDERS = st.one_of(st.integers(2, 12), st.integers(13, 10**200))
_POWERS_OF_TEN = st.builds(
    lambda sign, e, exact: sign * (Fraction(10) ** e if exact else 10.0**e),
    st.sampled_from((1, -1)),
    st.integers(-300, 300),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        sig,
        handles=st.integers(0, 2),
        crosscaps=st.integers(0, 2),
        cones=st.lists(_DEGREE_ONE_ORDERS, max_size=4),
        boundaries=st.lists(st.lists(_DEGREE_ONE_ORDERS, max_size=3), max_size=2),
    ),
    _POWERS_OF_TEN,
    st.booleans(),
    st.floats(1e-300, 1e300),
)
@example(sig(cones=(2, 3, 1000003)), -1e300, True, 1.0)
@example(sig(cones=(2, 2, int("7" * 120))), 1e-300, False, 1.0)
def test_coefficient_one_is_finite_and_within_two_ulps_or_refused(s, K, gauss_bonnet, other_area):
    """At the Gauss-Bonnet area where it is a positive float, else at other_area."""
    forced = 2 * math.pi * float(euler_characteristic(s)) / float(K) if K else 0.0
    area = forced if gauss_bonnet and 0 < forced < math.inf else other_area
    with mpmath.workdps(50):
        k = _mp(K)
        reference = k * k * _mp(area) / (60 * mpmath.pi) + k * _mp(_oracle_degree_one_sum(s))
    try:
        value = coefficient_one(s, MetricData(K, area))
    except ValueError as exc:
        assert str(exc) == "the degree 1 coefficient is past the float range"
        assert abs(reference) > sys.float_info.max
        return
    assert type(value) is float and math.isfinite(value)
    assert abs(mpmath.mpf(value) - reference) <= 2 * math.ulp(float(reference))

# === Full assembly ===

def test_full_expansion_pillowcase():
    expansion = full_expansion(sig(cones=(2, 2, 2, 2)), MetricData(0, 0.5))
    assert expansion.as_float(-1) == pytest.approx(1 / (8 * math.pi))
    assert expansion.as_float(Fraction(-1, 2)) == 0.0
    assert expansion.degree_zero == Fraction(1, 2)
    assert expansion.as_float(Fraction(1, 2)) == 0.0
    assert expansion.as_float(1) == 0.0


def test_full_expansion_square():
    square = sig(boundaries=((2, 2, 2, 2),))
    expansion = full_expansion(square, MetricData(0, 0.25, mirror_length=2.0))
    assert expansion.as_float(-1) == pytest.approx(1 / (16 * math.pi))
    assert expansion.as_float(Fraction(-1, 2)) == pytest.approx(1 / (4 * SQRT_PI))
    assert expansion.degree_zero == Fraction(1, 4)
    assert expansion.as_float(Fraction(1, 2)) == 0.0
    assert expansion.as_float(1) == 0.0


def test_full_expansion_round_sphere():
    expansion = full_expansion(sig(), MetricData(1, 4 * math.pi))
    assert expansion.as_float(-1) == pytest.approx(1.0)
    assert expansion.as_float(Fraction(-1, 2)) == 0.0
    assert expansion.degree_zero == Fraction(1, 3)
    assert expansion.as_float(Fraction(1, 2)) == 0.0
    assert expansion[1] == Fraction(1, 15)


def test_full_expansion_icosahedral_quotient_is_exact():
    expansion = full_expansion(sig(cones=(2, 3, 5)), MetricData(1, gb_area(sig(cones=(2, 3, 5)), 1)))
    assert expansion[1] == Fraction(7471, 10800)
    assert expansion.degree_zero == Fraction(271, 360)


def test_full_expansion_mirrored_spherical_exact_degree_one():
    triangle = sig(boundaries=((2, 3, 3),))
    chi = euler_characteristic(triangle)
    assert chi == Fraction(1, 12)
    metric = MetricData(1, gb_area(triangle, 1), mirror_length=math.pi)
    expansion = full_expansion(triangle, metric)
    # chi/30 + corner terms (n^4 + 10 n^2 - 11)/(720 n) for n in (2, 3, 3).
    assert expansion[1] == Fraction(787, 4320)
    assert expansion.as_float(Fraction(1, 2)) == pytest.approx(
        2 * math.pi / (64 * SQRT_PI)
    )


def test_exact_degree_one_identity_under_gauss_bonnet():
    # With K exact and the area forced by Gauss-Bonnet, the degree-1 value
    # collapses to K * (chi/30 + singular sums): a rational number.
    cases = [
        (sig(cones=(2, 3, 5)), 1, Fraction(7471, 10800)),
        (
            sig(cones=(2, 3, 7)),
            -1,
            -(
                Fraction(-1, 42) / 30
                + Fraction(45, 720)
                + Fraction(160, 1080)
                + Fraction(2880, 2520)
            ),
        ),
        (sig(handles=2), -1, Fraction(1, 15)),
    ]
    for signature, K, expected in cases:
        metric = MetricData(K, gb_area(signature, K))
        assert full_expansion(signature, metric)[1] == expected


# === Gauss-Bonnet and consistency guards ===

def test_gauss_bonnet_violations():
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(), MetricData(1, 5 * math.pi))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(handles=2), MetricData(1, 4 * math.pi))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(handles=1), MetricData(1, 2 * math.pi))
    # K = 0 with chi != 0 is just as inconsistent.
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(), MetricData(0, 4 * math.pi))


def test_gauss_bonnet_violation_payload():
    with pytest.raises(GaussBonnetViolation) as info:
        full_expansion(sig(), MetricData(1, 5 * math.pi))
    err = info.value
    assert err.chi == 2
    assert err.actual_area == pytest.approx(5 * math.pi)
    assert err.expected_area == pytest.approx(4 * math.pi)


@pytest.mark.parametrize(
    "cones, K, expected_area",
    [
        ((2, 3, 6), Fraction(1, 10**400), 0.0),  # chi = 0, so K V = 0 needs K = 0
        ((2, 3, 5), Fraction(1, 10**400), math.inf),  # 2 pi chi / K is past the float range
        ((2, 3, 5), Fraction(-1, 10**400), -math.inf),
        ((2, 3, 6), Fraction(-1, 10**400), 0.0),
    ],
)
def test_exact_curvature_below_the_float_range_is_not_flat(cones, K, expected_area):
    # float(K) is 0.0 here, but K is not, so Gauss-Bonnet is broken.
    with pytest.raises(GaussBonnetViolation) as info:
        full_expansion(sig(cones=cones), MetricData(K, 1.0))
    assert info.value.expected_area == expected_area
    assert "nan" not in str(info.value)


def test_exact_chi_below_the_float_range_is_not_flat():
    # chi = 1/m underflows as a float; with K = 0 and V > 0 it breaks Gauss-Bonnet.
    tiny = sig(cones=(2, 2, 10**400))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(tiny, MetricData(0, 1.0))


def test_flat_metric_with_nonzero_chi_admits_no_area():
    with pytest.raises(GaussBonnetViolation, match="no area satisfies 2 pi chi = K V$") as info:
        full_expansion(sig(cones=(2, 3, 5)), MetricData(0, 1.0))
    assert "nan" not in str(info.value)


def test_curvature_and_chi_both_below_the_float_range_fix_the_area():
    # chi = K = 10^-400: both floats are 0.0, but chi / K = 1 forces V = 2 pi.
    tiny = sig(cones=(2, 2, 10**400))
    K = Fraction(1, 10**400)
    with pytest.raises(GaussBonnetViolation) as info:
        full_expansion(tiny, MetricData(K, 1000.0))
    assert info.value.expected_area == 2 * math.pi
    expansion = full_expansion(tiny, MetricData(K, 2 * math.pi))
    assert expansion.as_float(-1) == 0.5
    with pytest.raises(GaussBonnetViolation):
        full_expansion(tiny, MetricData(K, 2 * math.pi * (1 + 1e-9)))
    # A float K of 1e-300 keeps its float; chi's is 0.0, so V = 2 pi 10^-100.
    full_expansion(tiny, MetricData(1e-300, 2 * math.pi * float(Fraction(10**300, 10**400))))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(tiny, MetricData(1e-300, 1.0))


def test_area_times_curvature_past_the_float_range_breaks_gauss_bonnet():
    # K V = 10^600 overflows to inf, which no 2 pi chi equals.
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(cones=(2, 3, 5)), MetricData(1e300, 1e300))


def test_gauss_bonnet_tolerance_is_tight_but_not_zero():
    area = 4 * math.pi
    full_expansion(sig(), MetricData(1, area * (1 + 1e-13)))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(), MetricData(1, area * (1 + 1e-9)))


# Orders from 2 up to 400 digits, so chi can underflow a float.
_ORDERS = st.one_of(st.integers(2, 12), st.integers(13, 10**400))


@st.composite
def _signatures(draw):
    if draw(st.booleans()):  # 2,2,m has chi = 1/m, which the big orders make tiny
        return sig(cones=(2, 2, draw(_ORDERS)))
    return sig(
        handles=draw(st.integers(0, 2)),
        crosscaps=draw(st.integers(0, 2)),
        cones=draw(st.lists(_ORDERS, max_size=4)),
        boundaries=draw(st.lists(st.lists(_ORDERS, max_size=3), max_size=2)),
    )


# Exact K of either sign from 1e-406 to 1e400.
_EXACT_CURVATURES = st.builds(
    lambda sign, m, e: sign * Fraction(m, 10**6) * Fraction(10) ** e,
    st.sampled_from((1, -1)),
    st.integers(1, 10**6),
    st.integers(-400, 400),
)
_CURVATURES = st.one_of(
    st.just(0), _EXACT_CURVATURES, st.floats(allow_nan=False, allow_infinity=False)
)
# Relative offsets of the area from the forced one, clear of the 1e-12 tolerance.
_DELTAS = st.one_of(
    st.just(0.0),
    st.floats(-0.9e-12, 0.9e-12),
    st.floats(1.1e-12, 1.0),
    st.floats(-0.5, -1.1e-12),
)


def _oracle_chi(s):
    """chi from the signature's parts, independently of orbheat."""
    chi = Fraction(2 - 2 * s.handles - s.crosscaps - len(s.mirror_boundaries))
    chi -= sum(1 - Fraction(1, m) for m in s.cone_points)
    chi -= sum((1 - Fraction(1, n)) / 2 for b in s.mirror_boundaries for n in b)
    return chi


def _mp(x):
    q = Fraction(x)
    return mpmath.mpf(q.numerator) / q.denominator


def _oracle_forced_area(chi, K):
    """2 pi chi / K to 50 digits, or None where no positive area satisfies it."""
    if K == 0 or chi * K <= 0:
        return None
    with mpmath.workdps(50):
        return 2 * mpmath.pi * _mp(chi) / _mp(K)


def _oracle_consistent(chi, K, V):
    with mpmath.workdps(50):
        lhs, rhs = _mp(K) * _mp(V), 2 * mpmath.pi * _mp(chi)
        return abs(lhs - rhs) <= mpmath.mpf("1e-12") * max(abs(lhs), abs(rhs))


@settings(max_examples=300, deadline=None)
@given(_signatures(), _CURVATURES, _DELTAS, st.floats(1e-3, 1e3))
# A K and a chi whose floats are subnormal, with a normal forced area.
@example(sig(cones=(2, 2, 10**10)), Fraction(1, 10**315), 0.0, 1.0)
@example(sig(cones=(2, 2, 10**315)), Fraction(1, 10**300), 0.0, 1.0)
def test_gauss_bonnet_verdict_matches_a_50_digit_oracle(s, K, delta, other_area):
    assume(abs(K) <= sys.float_info.max)  # MetricData takes no K past the float range
    chi = _oracle_chi(s)
    forced = _oracle_forced_area(chi, K)
    if forced is None:
        V = other_area
    else:
        with mpmath.workdps(50):
            V = float(forced * (1 + _mp(delta)))
        V = min(max(V, sys.float_info.min), sys.float_info.max)
    metric = MetricData(K, V, mirror_length=1.0 if s.has_mirrors else 0.0)
    try:
        full_expansion(s, metric)
        consistent = True
    except GaussBonnetViolation:
        consistent = False
    assert consistent == _oracle_consistent(chi, K, V)


@settings(max_examples=300, deadline=None)
@given(_signatures(), _EXACT_CURVATURES)
def test_default_area_is_always_accepted(s, K):
    chi = _oracle_chi(s)
    forced = _oracle_forced_area(chi, K)
    if forced is None:
        with pytest.raises(GaussBonnetViolation):
            _default_area(chi, K)
        return
    try:
        area = _default_area(chi, K)
    except ValueError as exc:
        assert str(exc) == "the area 2 pi chi / K is outside the float range"
        assert not sys.float_info.min <= forced <= sys.float_info.max
        return
    assume(abs(K) <= sys.float_info.max)
    full_expansion(s, MetricData(K, area, mirror_length=1.0 if s.has_mirrors else 0.0))


def test_mirror_length_consistency():
    square = sig(boundaries=((2, 2, 2, 2),))
    with pytest.raises(ValueError):
        full_expansion(square, MetricData(0, 0.25))  # mirrors need length
    with pytest.raises(ValueError):
        full_expansion(sig(handles=1), MetricData(0, 1.0, mirror_length=2.0))


def test_metric_data_validation():
    with pytest.raises(ValueError):
        MetricData(0, 0.0)
    with pytest.raises(ValueError):
        MetricData(0, -1.0)
    with pytest.raises(ValueError):
        MetricData(0, math.nan)
    with pytest.raises(ValueError):
        MetricData(0, 1.0, mirror_length=-0.5)


@pytest.mark.parametrize(
    "curvature, area, mirror_length",
    [
        (Fraction(10**400), 1.0, 0.0),
        (-(10**400), 1.0, 0.0),
        (1, Fraction(10**400, 3), 0.0),
        (0, 1.0, 10**400),
    ],
    ids=["curvature", "negative-int-curvature", "area", "mirror-length"],
)
def test_metric_data_rejects_exact_values_past_the_float_range(curvature, area, mirror_length):
    with pytest.raises(ValueError, match="must be finite"):
        MetricData(curvature, area, mirror_length)


# === Half-integer predicate ===

def test_has_half_integer_terms():
    assert has_half_integer_terms(sig(boundaries=((5,),)))
    assert has_half_integer_terms(sig(boundaries=((),)))
    assert not has_half_integer_terms(sig(cones=(2, 3, 5)))
    assert not has_half_integer_terms(sig(cones=(2, 2), crosscaps=1))


def test_mirror_equivalence_with_minus_half_coefficient():
    flat_mirrored = [
        (sig(boundaries=((2, 2, 2, 2),)), MetricData(0, 0.25, mirror_length=2.0)),
        (sig(boundaries=((), ())), MetricData(0, 1.0, mirror_length=2.0)),
        (sig(cones=(2, 2), boundaries=((),)), MetricData(0, 0.5, mirror_length=1.0)),
    ]
    for signature, metric in flat_mirrored:
        expansion = full_expansion(signature, metric)
        assert has_half_integer_terms(signature)
        assert expansion.as_float(Fraction(-1, 2)) > 0
    flat = full_expansion(sig(handles=1), MetricData(0, 1.0))
    assert flat.as_float(Fraction(-1, 2)) == 0.0


# === HeatExpansion container ===

def test_expansion_requires_all_degrees():
    with pytest.raises(ValueError):
        HeatExpansion({Fraction(-1): 1.0})
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(0)] = Fraction(1)
    with pytest.raises(ValueError):
        HeatExpansion(coeffs | {Fraction(2): 0.0})


def test_expansion_requires_exact_degree_zero():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(-1)] = 1.0
    coeffs[Fraction(0)] = 0.5
    with pytest.raises(ValueError):
        HeatExpansion(coeffs)


def test_expansion_requires_positive_volume_term():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(0)] = Fraction(0)
    with pytest.raises(ValueError):
        HeatExpansion(coeffs)


def test_expansion_getitem_accepts_equivalent_degrees():
    expansion = full_expansion(sig(), MetricData(1, 4 * math.pi))
    assert expansion[-1] == expansion[Fraction(-1)]
    assert expansion[-0.5] == expansion[Fraction(-1, 2)]
    assert expansion[1] == Fraction(1, 15)


def test_expansion_json_round_trip():
    expansion = full_expansion(
        sig(boundaries=((2, 2, 2, 2),)), MetricData(0, 0.25, mirror_length=2.0)
    )
    blob = expansion.to_json()
    assert set(blob) == {"deg_-1", "deg_-0.5", "deg_0", "deg_0.5", "deg_1"}
    assert isinstance(blob["deg_-1"], float)
    assert blob["deg_0"] == {"num": "1", "den": "4"}
    for degree in DEGREES:
        if degree != 0:
            assert blob[f"deg_{float(degree):g}"] == expansion.as_float(degree)
    assert json.loads(json.dumps(blob)) == blob


def test_expansion_json_names_a_degree_past_the_float_range():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(-1)] = 1.0
    coeffs[Fraction(0)] = Fraction(1)
    coeffs[Fraction(1)] = Fraction(10**400, 7)
    expansion = HeatExpansion(coeffs)
    with pytest.raises(ValueError, match="degree 1 coefficient"):
        expansion.to_json()


def test_expansion_json_rejects_a_float_past_the_range():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(-1)] = 1.0
    coeffs[Fraction(0)] = Fraction(1)
    coeffs[Fraction(1, 2)] = math.inf
    with pytest.raises(ValueError, match="degree 1/2 coefficient"):
        HeatExpansion(coeffs).to_json()


def test_expansion_checks_an_exact_volume_term_past_the_float_range():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(0)] = Fraction(1)
    coeffs[Fraction(-1)] = Fraction(10**400)
    assert HeatExpansion(coeffs)[-1] == 10**400
    coeffs[Fraction(-1)] = Fraction(-(10**400))
    with pytest.raises(ValueError, match="must be positive"):
        HeatExpansion(coeffs)


def test_text_prints_an_exact_value_in_full_and_json_refuses_it():
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(-1)] = 1.0
    coeffs[Fraction(0)] = Fraction(10**400, 3)
    coeffs[Fraction(1)] = Fraction(-(10**400), 7)
    expansion = HeatExpansion(coeffs)
    assert expansion.to_text() == "\n".join(
        ["deg -1: 1.0", "deg -1/2: 0.0", f"deg 0: {10**400}/3", "deg 1/2: 0.0", f"deg 1: -{10**400}/7"]
    )
    # Degree 0 is written exactly in JSON too; degree 1 is written as a float.
    with pytest.raises(
        ValueError, match="^the degree 1 coefficient is past the float range of JSON output$"
    ):
        expansion.to_json()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_both_formats_refuse_a_float_past_the_range(value):
    coeffs = {d: 0.0 for d in DEGREES}
    coeffs[Fraction(-1)] = 1.0
    coeffs[Fraction(0)] = Fraction(1)
    coeffs[Fraction(1, 2)] = value
    coeffs[Fraction(1)] = math.inf  # the first degree past the range is the one named
    expansion = HeatExpansion(coeffs)
    with pytest.raises(ValueError, match="^the degree 1/2 coefficient is past the float range$"):
        expansion.to_text()
    with pytest.raises(
        ValueError, match="^the degree 1/2 coefficient is past the float range of JSON output$"
    ):
        expansion.to_json()


def test_notation_front_end_agrees():
    assert spectral_c(parse("2,3,5")) == Fraction(271, 30)
    assert degree_zero_term(parse("*2,2,2,2")) == Fraction(1, 4)
