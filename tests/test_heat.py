"""Heat-trace expansion coefficients and the spectral constant c."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbheat.heat import (
    DEGREES,
    GaussBonnetViolation,
    HeatExpansion,
    MetricData,
    c_ratio,
    coefficient_half,
    coefficient_minus_half,
    coefficient_minus_one,
    coefficient_one,
    degree_zero_term,
    full_expansion,
    has_half_integer_terms,
    spectral_c,
)
from orbheat.notation import parse
from orbheat.signature import OrbifoldSignature, euler_characteristic

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
    # An explicit mirror curvature integral overrides the 2 K L default.
    override = MetricData(1, 4 * math.pi, mirror_length=2 * math.pi,
                          mirror_curvature_integral=64 * SQRT_PI)
    assert coefficient_half(override) == pytest.approx(1.0)


def test_coefficient_one_flat_is_zero():
    assert coefficient_one(sig(handles=1), MetricData(0, 1.0)) == 0.0
    assert coefficient_one(sig(cones=(2, 2, 2, 2)), MetricData(0, 0.5)) == 0.0


def test_coefficient_one_sphere_quotient():
    value = coefficient_one(sig(cones=(2, 3, 5)), MetricData(1, math.pi / 15))
    assert value == pytest.approx(7471 / 10800, rel=1e-12)


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


def test_gauss_bonnet_tolerance_is_tight_but_not_zero():
    area = 4 * math.pi
    full_expansion(sig(), MetricData(1, area * (1 + 1e-13)))
    with pytest.raises(GaussBonnetViolation):
        full_expansion(sig(), MetricData(1, area * (1 + 1e-9)))


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
    back = HeatExpansion.from_json(blob)
    assert back.degree_zero == expansion.degree_zero
    for degree in DEGREES:
        assert back.as_float(degree) == pytest.approx(expansion.as_float(degree), abs=1e-15)


def test_notation_front_end_agrees():
    assert spectral_c(parse("2,3,5")) == Fraction(271, 30)
    assert degree_zero_term(parse("*2,2,2,2")) == Fraction(1, 4)
