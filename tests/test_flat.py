"""Flat-orbifold spectra: theta sums, deck quotients, and coefficient fits."""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from operator import mul

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbheat.flat
from orbheat import _lstsq
from orbheat.flat import (
    FIT_DEGREES,
    FlatModel,
    IllConditioned,
    InsufficientSamples,
    TraceSamples,
    brute_force_trace,
    default_grid,
    degree_label,
    eigenvalue_multiplicities,
    fit_expansion,
    heat_trace,
    predicted_expansion,
    sample_trace,
    theta1,
    verify_model,
)
from orbheat.heat import degree_zero_term
from orbheat.notation import render
from orbheat.signature import euler_characteristic
from test_acceptance import TRACE_FORMS

ALL_MODELS = tuple(FlatModel)


# === Theta sum ===

def test_theta_goldens():
    assert theta1(10) == pytest.approx(1.0, abs=1e-15)
    assert theta1(1 / (4 * math.pi)) == pytest.approx(1.0864348112133082, rel=1e-12)
    assert theta1(0.05) == pytest.approx(1.2785669994156845, rel=1e-12)
    assert theta1(0.1) == pytest.approx(1.0385928831070663, rel=1e-12)
    assert theta1(0.2) == pytest.approx(1.000744694612106, rel=1e-12)
    assert theta1(0.01) == pytest.approx(2.820947917817136, rel=1e-12)
    assert theta1(1e-6) == pytest.approx(282.09479177387345, rel=1e-12)


def test_theta_poisson_limit():
    # theta1(t) * sqrt(4 pi t) -> 1 as t -> 0.
    assert abs(theta1(1e-6) * math.sqrt(4 * math.pi * 1e-6) - 1.0) < 1e-12


def theta_reference(t):
    """40-digit theta1(t) from mpmath's Jacobi theta_3 at nome exp(-4 pi^2 t).

    Below t = 0.01 the nome is close to 1, so the reference switches to
    Jacobi's dual nome exp(-1/(4t)); the switch sits away from theta1's own
    so that both of its forms are checked against the other near 1/(4 pi).
    """
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if t >= mpmath.mpf("0.01"):
            return mpmath.jtheta(3, 0, mpmath.exp(-4 * mpmath.pi**2 * t))
        dual = mpmath.jtheta(3, 0, mpmath.exp(-1 / (4 * t)))
        return dual / mpmath.sqrt(4 * mpmath.pi * t)


_SWITCH = 1 / (4 * math.pi)


# t log-uniform over [1e-300, 1e3]
LOG_UNIFORM_T = st.floats(min_value=-300, max_value=3).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(t=LOG_UNIFORM_T)
@example(t=5e-324)
@example(t=4.9e-314)
@example(t=_SWITCH * (1 - 1e-12))
@example(t=_SWITCH * (1 + 1e-12))
# theta1 returns its leading term alone where the decay rate a passes 40.
@example(t=1 / 160 * (1 - 1e-12))
@example(t=1 / 160 * (1 + 1e-12))
@example(t=40 / (4 * math.pi**2) * (1 - 1e-12))
@example(t=40 / (4 * math.pi**2) * (1 + 1e-12))
def test_theta_matches_mpmath_reference(t):
    reference = theta_reference(t)
    with mpmath.workdps(40):
        rel_err = abs((mpmath.mpf(theta1(t)) - reference) / reference)
    assert rel_err <= 1e-14, (t, float(rel_err))


def test_theta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta1(0.0)
    with pytest.raises(ValueError):
        theta1(-1.0)


# === Model bookkeeping ===

def test_model_geometry_table():
    expected = {
        FlatModel.TORUS: (Fraction(1), 0.0, "o"),
        FlatModel.KLEIN_BOTTLE: (Fraction(1, 2), 0.0, "××"),
        FlatModel.PILLOWCASE: (Fraction(1, 2), 0.0, "2,2,2,2"),
        FlatModel.SQUARE: (Fraction(1, 4), 2.0, "*2,2,2,2"),
        FlatModel.MIRROR_TORUS: (Fraction(1, 2), 2.0, "*,*"),
    }
    for model, (area, length, notation) in expected.items():
        assert model.area == area
        assert float(model.mirror_length) == length
        assert render(model.signature) == notation


def compose(g, h):
    """The deck element g after h, translations reduced mod 1."""
    (a, d, bx, by), (a2, d2, bx2, by2) = g, h
    return (a * a2, d * d2, (a * bx2 + bx) % 1, (d * by2 + by) % 1)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_deck_table_ties_deck_to_signature(model):
    signature, deck = orbheat.flat._MODELS[model]
    assert signature == model.signature
    # The deck is a group mod Z^2: it holds the identity and is closed.
    elements = set(deck)
    assert len(elements) == len(deck)
    assert (1, 1, 0, 0) in elements
    assert all(compose(g, h) in elements for g in deck for h in deck)
    assert model.area == Fraction(1, len(deck))
    assert euler_characteristic(signature) == 0
    # The half-turns -I feed the constant term.
    half_turns = sum(1 for a, d, _, _ in deck if a == d == -1)
    assert degree_zero_term(signature) == Fraction(half_turns, len(deck))
    assert signature.has_mirrors == (model.mirror_length > 0)


@settings(max_examples=300, deadline=None)
@given(t=LOG_UNIFORM_T)
def test_trace_matches_closed_theta_forms(t):
    th, th4 = theta1(t), theta1(4.0 * t)
    for model in ALL_MODELS:
        closed = TRACE_FORMS[model](th, th4)
        assert abs(heat_trace(model, t) - closed) <= 1e-15 * closed, (model, t)


# === Closed traces ===

def test_trace_goldens_at_t_tenth():
    assert heat_trace(FlatModel.TORUS, 0.1) == pytest.approx(1.0786751768406484, rel=1e-12)
    assert heat_trace(FlatModel.KLEIN_BOTTLE, 0.1) == pytest.approx(1.0200414241518239, rel=1e-12)
    assert heat_trace(FlatModel.PILLOWCASE, 0.1) == pytest.approx(1.0393375884203242, rel=1e-12)
    assert heat_trace(FlatModel.SQUARE, 0.1) == pytest.approx(1.038965235763695, rel=1e-12)
    assert heat_trace(FlatModel.MIRROR_TORUS, 0.1) == pytest.approx(1.0586340299738572, rel=1e-12)


def test_trace_large_t_limits():
    # Every model keeps exactly one zero mode.
    for model in ALL_MODELS:
        assert heat_trace(model, 10.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_trace_at_extreme_t(model):
    # Finite down to t = 1e-309, where the trace is about area / (4 pi t)
    leading = float(model.area) / (4 * math.pi) / 1e-309
    assert heat_trace(model, 1e-309) == pytest.approx(leading, rel=1e-15)
    # and down to where area / (4 pi t) is 1.2e308, near the largest float
    t = float(model.area) / (4 * math.pi) / 1.2e308
    value = heat_trace(model, t)
    assert math.isfinite(value)
    assert value == pytest.approx(float(model.area) / (4 * math.pi) / t, rel=1e-14)
    assert heat_trace(model, 1e308) == 1.0
    with pytest.raises(ValueError, match="largest float"):
        heat_trace(model, 5e-324)


def test_square_trace_matches_predicted_asymptote():
    t = 1e-3
    predicted = 1 / (16 * math.pi * t) + 1 / (4 * math.sqrt(math.pi * t)) + 0.25
    assert heat_trace(FlatModel.SQUARE, t) == pytest.approx(predicted, rel=1e-9)


def test_torus_trace_is_theta_squared():
    for t in (0.01, 0.1, 1.0):
        assert heat_trace(FlatModel.TORUS, t) == pytest.approx(theta1(t) ** 2, rel=1e-15)


def test_deck_group_linear_identities():
    # Each quotient trace is a fixed linear combination of theta values;
    # eliminating theta recovers the torus trace exactly.
    for t in (0.004, 0.02, 0.1, 0.5):
        torus = heat_trace(FlatModel.TORUS, t)
        theta = theta1(t)
        scale = max(1.0, torus)
        pillow = heat_trace(FlatModel.PILLOWCASE, t)
        assert abs(2 * pillow - 1 - torus) < 1e-12 * scale
        square = heat_trace(FlatModel.SQUARE, t)
        assert abs(4 * square - 2 * theta - 1 - torus) < 1e-12 * scale
        mirror = heat_trace(FlatModel.MIRROR_TORUS, t)
        assert abs(2 * mirror - theta - torus) < 1e-12 * scale
        klein = heat_trace(FlatModel.KLEIN_BOTTLE, t)
        assert abs(2 * (klein - theta1(4 * t)) + theta - torus) < 1e-12 * scale


def test_trace_monotonicity():
    # 100 geometric points spanning [1e-3, 1].  Above t ~ 0.95 the traces
    # sit within one ulp of 1.0, so float equality between neighbors is
    # forced there; strict decrease is asserted wherever doubles can
    # express it and non-increase everywhere.
    ts = [1e-3 * (1000.0 ** (i / 99)) for i in range(100)]
    for model in ALL_MODELS:
        values = [heat_trace(model, t) for t in ts]
        assert all(v > 0 for v in values)
        for (t0, a), (t1, b) in zip(zip(ts, values), zip(ts[1:], values[1:])):
            assert a >= b, (model, t0, t1)
            if t1 <= 0.95:
                assert a > b, (model, t0, t1)
        assert values[0] > values[-1]


# === Brute-force spectra ===

SHELL = 4 * math.pi**2

MULTIPLICITY_FIXTURES = {
    FlatModel.TORUS: {0: 1, 1: 4, 2: 4, 4: 4, 5: 8},
    FlatModel.KLEIN_BOTTLE: {0: 1, 1: 1, 2: 2, 4: 3, 5: 4},
    FlatModel.PILLOWCASE: {0: 1, 1: 2, 2: 2, 4: 2, 5: 4},
    FlatModel.SQUARE: {0: 1, 1: 2, 2: 1, 4: 2, 5: 2},
    FlatModel.MIRROR_TORUS: {0: 1, 1: 3, 2: 2, 4: 3, 5: 4},
}


@pytest.mark.parametrize("model", ALL_MODELS)
def test_eigenvalue_multiplicities(model):
    got = eigenvalue_multiplicities(model, 5.5 * SHELL)
    assert got == MULTIPLICITY_FIXTURES[model]


def test_multiplicities_match_spot_statements():
    pillow = eigenvalue_multiplicities(FlatModel.PILLOWCASE, 2.5 * SHELL)
    assert pillow == {0: 1, 1: 2, 2: 2}
    assert eigenvalue_multiplicities(FlatModel.TORUS, 1.5 * SHELL)[1] == 4
    assert eigenvalue_multiplicities(FlatModel.SQUARE, 1.5 * SHELL)[1] == 2


def test_klein_multiplicity_parity_structure():
    # The glide kills e(kx) lines with odd k and pairs up (0, l) with
    # (0, -l); shell 9 keeps only the (0, +-3) combination.
    mults = eigenvalue_multiplicities(FlatModel.KLEIN_BOTTLE, 10.5 * SHELL)
    assert mults[9] == 1
    assert mults[4] == 3  # (+-2, 0) survive individually plus the (0, +-2) pair


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
def test_brute_force_agrees_with_closed_form(model, t):
    closed = heat_trace(model, t)
    brute = brute_force_trace(model, t, 80 * math.pi**2)
    assert abs(closed - brute) < 1e-10


def test_oversized_oracle_cutoff_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="100000"):
        brute_force_trace(FlatModel.TORUS, 0.1, 1e300)
    assert time.perf_counter() - start < 0.1


def test_shell_limit_is_inclusive(monkeypatch):
    cutoff = 29.5 * SHELL  # shells n <= 29 = 5^2 + 2^2
    monkeypatch.setattr(orbheat.flat, "MULTIPLICITY_SHELL_LIMIT", 29)
    assert max(eigenvalue_multiplicities(FlatModel.TORUS, cutoff)) == 29
    monkeypatch.setattr(orbheat.flat, "MULTIPLICITY_SHELL_LIMIT", 28)
    with pytest.raises(ValueError, match="28"):
        eigenvalue_multiplicities(FlatModel.TORUS, cutoff)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
def test_oracle_and_grid_reject_a_bad_argument(bad):
    with pytest.raises(ValueError, match="cutoff must be finite and > 0"):
        eigenvalue_multiplicities(FlatModel.TORUS, bad)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        brute_force_trace(FlatModel.TORUS, bad, 40.0)
    with pytest.raises(ValueError, match=f"start must be finite and > 0, got {bad!r}"):
        default_grid(bad)


# === Samples container ===

def test_default_grid():
    grid = default_grid()
    assert len(grid) == 12
    assert grid[0] == pytest.approx(1e-2)
    for a, b in zip(grid, grid[1:]):
        assert b == pytest.approx(a * 0.7)


def test_trace_samples_validation():
    with pytest.raises(ValueError):
        TraceSamples(())
    with pytest.raises(ValueError):
        TraceSamples(((0.1, 1.0), (0.1, 1.0)))  # not strictly decreasing
    with pytest.raises(ValueError):
        TraceSamples(((0.1, 1.0), (0.2, 1.0)))
    with pytest.raises(ValueError):
        TraceSamples(((-0.1, 1.0),))


def test_sample_trace_uses_model_trace():
    samples = sample_trace(FlatModel.PILLOWCASE)
    for t, value in samples.points:
        assert value == pytest.approx(heat_trace(FlatModel.PILLOWCASE, t), rel=1e-15)


# === Least-squares fitting ===

def geometric_grid(start, stop, count):
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))


def test_fit_recovers_synthetic_expansion():
    ts = geometric_grid(1e-2, 1e-3, 12)
    samples = TraceSamples(tuple((t, 3.0 / t + 5.0) for t in ts))
    fit = fit_expansion(samples)
    assert fit.coefficients[Fraction(-1)] == pytest.approx(3.0, abs=1e-10)
    assert fit.coefficients[Fraction(-1, 2)] == pytest.approx(0.0, abs=1e-10)
    assert fit.coefficients[Fraction(0)] == pytest.approx(5.0, abs=1e-10)
    assert fit.residual < 1e-10


def test_fit_three_degree_synthetic():
    ts = geometric_grid(1e-2, 1e-4, 12)
    samples = TraceSamples(
        tuple((t, 0.25 / t + 1.5 / math.sqrt(t) - 2.0) for t in ts)
    )
    fit = fit_expansion(samples)
    assert fit.coefficients[Fraction(-1)] == pytest.approx(0.25, abs=1e-9)
    assert fit.coefficients[Fraction(-1, 2)] == pytest.approx(1.5, abs=1e-8)
    assert fit.coefficients[Fraction(0)] == pytest.approx(-2.0, abs=1e-7)


def test_fit_validation():
    samples = TraceSamples(((0.2, 1.0), (0.1, 2.0)))
    with pytest.raises(InsufficientSamples):
        fit_expansion(samples)


def test_fit_condition_guard(monkeypatch):
    samples = sample_trace(FlatModel.TORUS)
    with monkeypatch.context() as patch:
        patch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", 100.0)
        with pytest.raises(IllConditioned):
            fit_expansion(samples)
    fit = fit_expansion(samples)
    assert fit.condition < 1e5


# === Fit against a 50-digit least-squares oracle ===

EPS = sys.float_info.epsilon


def oracle_fit(samples, degrees):
    """50-digit least squares of the same float data: coefficients, condition."""
    with mpmath.workdps(50):
        design = mpmath.matrix(
            [[mpmath.mpf(t ** float(d)) for d in degrees] for t in samples.times]
        )
        target = mpmath.matrix([mpmath.mpf(v) for v in samples.values])
        solution, _ = mpmath.qr_solve(design, target)
        sigmas = mpmath.svd_r(design, compute_uv=False)
        return [solution[i] for i in range(len(degrees))], max(sigmas) / min(sigmas)


def distance(coefficients, reference) -> float:
    """Largest coefficient error, relative to the largest reference coefficient."""
    scale = max(abs(r) for r in reference)
    return float(max(abs(mpmath.mpf(c) - r) for c, r in zip(coefficients, reference)) / scale)


def assert_fit_matches_oracle(samples, fit, degrees=FIT_DEGREES):
    numpy = pytest.importorskip("numpy")
    reference, condition = oracle_fit(samples, degrees)
    design = numpy.array([[t ** float(d) for d in degrees] for t in samples.times])
    theirs = numpy.linalg.lstsq(design, numpy.array(samples.values), rcond=None)[0]
    ours = distance(list(fit.coefficients.values()), reference)
    # Where numpy itself lands within a few ulps of the largest coefficient,
    # both are as close as their own rounding allows.
    assert ours <= max(distance(theirs.tolist(), reference), 4 * EPS)
    assert abs(fit.condition - condition) <= 1e-12 * condition
    with mpmath.workdps(50):
        rows = (
            sum(mpmath.mpf(t ** float(d)) * mpmath.mpf(c) for d, c in fit.coefficients.items())
            - mpmath.mpf(v)
            for t, v in samples.points
        )
        residual = mpmath.sqrt(sum(r * r for r in rows))
    # fit.residual is ||A x - b|| for the returned x, summed in doubles.
    assert abs(fit.residual - residual) <= 16 * EPS * math.hypot(*samples.values)


@pytest.mark.parametrize("start", [1e-2, 1e-3])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
def test_fit_matches_oracle_on_the_bench_grids(model, start):
    samples = sample_trace(model, default_grid(start))
    assert_fit_matches_oracle(samples, fit_expansion(samples))


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(ALL_MODELS),
    log_start=st.floats(min_value=-6.5, max_value=-0.5),
)
def test_fit_matches_oracle_on_drawn_grids(model, log_start):
    samples = sample_trace(model, default_grid(10.0**log_start))
    assert_fit_matches_oracle(samples, fit_expansion(samples))


def test_fit_matches_oracle_on_synthetic_samples():
    # The 5 t term lies outside FIT_DEGREES, so the fit leaves a residual.
    ts = geometric_grid(1e-1, 1e-5, 20)
    samples = TraceSamples(tuple((t, 0.3 / t - 0.7 / math.sqrt(t) + 2.0 + 5.0 * t) for t in ts))
    fit = fit_expansion(samples)
    assert fit.residual > 0.0
    assert_fit_matches_oracle(samples, fit)


# === Fit against exact least squares ===

def exact_least_squares(samples) -> list:
    """The least-squares coefficients at FIT_DEGREES of the sampled floats, exactly.

    The design entries t ** d are the same floats the fit uses; the normal
    equations and their elimination are in Fractions, and each coefficient
    is rounded once, by float(Fraction), to the nearest float.
    """
    columns = [[Fraction(t ** float(d)) for t in samples.times] for d in FIT_DEGREES]
    values = [Fraction(v) for v in samples.values]
    rows = [
        [sum(map(mul, p, q)) for q in columns] + [sum(map(mul, p, values))]
        for p in columns
    ]
    n = len(rows)
    for i in range(n):
        pivot = next(r for r in range(i, n) if rows[r][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(n):
            if r != i:
                f = rows[r][i] / rows[i][i]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return [float(row[n] / row[i]) for i, row in enumerate(rows)]


def float_residual(samples, coefficients) -> float:
    """hypot of the rows v - c_0 a_0 - c_1 a_1 - c_2 a_2, each subtracted in doubles."""
    rows = []
    for t, v in samples.points:
        for d, c in zip(FIT_DEGREES, coefficients):
            v -= c * t ** float(d)
        rows.append(v)
    return math.hypot(*rows)


def assert_fit_is_exact(samples, fit):
    expected = exact_least_squares(samples)
    assert list(fit.coefficients) == list(FIT_DEGREES)
    assert list(fit.coefficients.values()) == expected
    assert fit.residual == float_residual(samples, expected)


@settings(max_examples=200, deadline=None)
@given(
    model=st.sampled_from(ALL_MODELS),
    log_start=st.floats(min_value=-6.5, max_value=-0.5),
)
def test_fit_equals_exact_least_squares_on_drawn_grids(model, log_start):
    samples = sample_trace(model, default_grid(10.0**log_start))
    assert_fit_is_exact(samples, fit_expansion(samples))


# Sample values of any sign over 200 decades, at times over 40 decades.
SAMPLE_VALUES = st.floats(-1e100, 1e100).filter(lambda v: v == 0 or abs(v) > 1e-100)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.floats(1e-20, 1e20), min_size=3, max_size=12, unique=True),
    values=st.lists(SAMPLE_VALUES, min_size=12, max_size=12),
)
def test_fit_equals_exact_least_squares_on_drawn_samples(times, values):
    samples = TraceSamples(tuple(zip(sorted(times, reverse=True), values)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", math.inf)
        try:
            fit = fit_expansion(samples)
        except IllConditioned:
            # With no limit, only an exactly singular design is refused.
            assert exact_rank_of_design(samples) < len(FIT_DEGREES)
            return
    assert_fit_is_exact(samples, fit)


def exact_rank_of_design(samples) -> int:
    """The rank of the t ** d design matrix, by elimination in Fractions."""
    rows = [[Fraction(t ** float(d)) for d in FIT_DEGREES] for t in samples.times]
    rank = 0
    for j in range(len(FIT_DEGREES)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_exactly_representable_data_is_fit_bit_for_bit():
    # At t = 4^-j, t^-1 = 4^j and t^-1/2 = 2^j are exact, and so is each
    # sample a 4^j + b 2^j + c: the exact least-squares solution is (a, b, c).
    a, b, c = 0.375, -1.25, 3.0625
    samples = TraceSamples(tuple((4.0**-j, a * 4.0**j + b * 2.0**j + c) for j in range(12)))
    fit = fit_expansion(samples)
    assert list(fit.coefficients.values()) == [a, b, c]
    assert fit.residual == 0.0


def test_fit_without_refinement_past_the_refinement_range(monkeypatch):
    # Samples near 1e200: squared, they would overflow a double, and the
    # t^0 column's squares beside them would vanish; in ints the normal
    # equations hold exactly, and the fit is the exact solution rounded once.
    ts = geometric_grid(1e-200, 1e-202, 12)
    samples = TraceSamples(tuple((t, 0.25 / t + 1.5 / math.sqrt(t) - 2.0) for t in ts))
    assert min(samples.values) > 1e199
    monkeypatch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", math.inf)
    fit = fit_expansion(samples)
    assert_fit_is_exact(samples, fit)
    _, condition = oracle_fit(samples, FIT_DEGREES)
    assert abs(fit.condition - condition) <= 1e-12 * condition


@pytest.mark.parametrize(
    "vector",
    [
        [5e-324, 2.2250738585072009e-308, 1.0],
        [1e-300, 1.0, 1e300, -1e300, 0.0, -0.0],
        [sys.float_info.max, 5e-324, -sys.float_info.max],
        [0.1, 1 / 3, 1e-5],
    ],
    ids=["subnormal", "span-1e600", "full-range", "plain"],
)
def test_floats_convert_to_ints_exactly(vector):
    ints, shift = _lstsq._integers(vector)
    assert [Fraction(n, 2**shift) for n in ints] == list(map(Fraction, vector))


def test_normal_equations_need_a_last_column_of_ones():
    # The solver reads the t^0 column of FIT_DEGREES as ones without
    # multiplying by it, so any other last column is refused.
    assert FIT_DEGREES[-1] == 0
    columns = [[1.0, 2.0, 4.0], [1.0, 1.5, 2.0], [1.0, 1.0, 2.0]]
    with pytest.raises(ValueError, match="last design column must be ones"):
        _lstsq.normal_equations(columns, [1.0, 2.0, 3.0])


def test_fit_at_subnormal_times_and_over_600_decades(monkeypatch):
    monkeypatch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", math.inf)
    # Subnormal times whose t^-1 stays below the largest float: the
    # condition lies past the float range, which reads as inf, and the
    # exact solve beyond that check is still the exact least squares.
    subnormal = TraceSamples(((2e-308, 3.0), (1.5e-308, 2.0), (1e-308, 1.0), (6e-309, 0.5)))
    assert all(t < sys.float_info.min for t in subnormal.times)
    with pytest.raises(IllConditioned, match="condition inf"):
        fit_expansion(subnormal)
    columns = [[t ** float(d) for t in subnormal.times] for d in FIT_DEGREES]
    system = _lstsq.normal_equations(columns, subnormal.values)
    coefficients, residual = _lstsq.solve(*system, columns, subnormal.values)
    assert coefficients == exact_least_squares(subnormal)
    assert residual == float_residual(subnormal, coefficients)
    # Times from 1e300 to 1e-300: each design column spans 600 decades.
    spans = TraceSamples(tuple((10.0 ** (300 - 120 * i), 1.0 + i) for i in range(6)))
    assert_fit_is_exact(spans, fit_expansion(spans))


def test_a_coefficient_past_the_float_range_is_a_value_error():
    # t^-1, t^-1/2 and 1 at t = 1, 1/4, 1/16 are (1, 4, 16), (1, 2, 4) and
    # ones; these three samples interpolate with c_-1/2 = -2.5 * 1.5e308.
    samples = TraceSamples(((1.0, 1.5e308), (0.25, 0.0), (0.0625, 1.5e308)))
    with pytest.raises(ValueError, match="exceeds the largest float"):
        fit_expansion(samples)


def test_a_time_whose_inverse_overflows_is_a_value_error():
    # 1e-310 and 1e-315 lie below 1 / 1.8e308, so their t^-1 overflows.
    samples = TraceSamples(((1e-300, 1.0), (1e-310, 2.0), (1e-315, 3.0)))
    with pytest.raises(ValueError, match=r"sample time 1e-315 is too small") as error:
        fit_expansion(samples)
    assert not isinstance(error.value, InsufficientSamples)
    with pytest.raises(InsufficientSamples):  # checked first
        fit_expansion(TraceSamples(samples.points[1:]))


def test_fit_insufficient_samples_boundary():
    ts = geometric_grid(1e-2, 1e-3, 3)
    samples = TraceSamples(tuple((t, 2.0 / t + 1.0) for t in ts))
    fit = fit_expansion(samples)  # square: interpolation
    assert fit.coefficients[Fraction(-1)] == pytest.approx(2.0, rel=1e-12)
    assert fit.residual < 1e-10
    with pytest.raises(InsufficientSamples):
        fit_expansion(TraceSamples(samples.points[:2]))


def test_fit_condition_limit_boundary_is_checked_before_solving(monkeypatch):
    samples = sample_trace(FlatModel.TORUS)
    condition = fit_expansion(samples).condition
    monkeypatch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", condition)
    assert fit_expansion(samples).condition == condition

    def no_solve(*args):
        raise AssertionError("solved an ill-conditioned design")

    # fit_expansion reads _lstsq.solve at each call, and solves nowhere else.
    monkeypatch.setattr(_lstsq, "solve", no_solve)
    monkeypatch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", math.nextafter(condition, 0.0))
    with pytest.raises(IllConditioned):
        fit_expansion(samples)
    monkeypatch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", condition)
    with pytest.raises(AssertionError, match="ill-conditioned"):
        fit_expansion(samples)


def test_fit_rank_deficient_designs_are_ill_conditioned(monkeypatch):
    # At 1, 1 - 2^-53 and 1 - 2^-52, t^-1 and t^-1/2 round to the same
    # floats, (1, 1, 1 + 2^-52): two equal columns make det(A^T A) exactly
    # 0, an infinite condition.
    ts = (1.0, 1.0 - 2.0**-53, 1.0 - 2.0**-52)
    samples = TraceSamples(tuple((t, 1.0 / t) for t in ts))
    with monkeypatch.context() as patch:
        patch.setattr(orbheat.flat, "FIT_CONDITION_LIMIT", math.inf)
        with pytest.raises(IllConditioned, match="condition inf"):
            fit_expansion(samples)
    # Nearly equal times a few ulps apart: nearly dependent columns.
    ts = (4.0, math.nextafter(4.0, 0.0), math.nextafter(math.nextafter(4.0, 0.0), 0.0))
    with pytest.raises(IllConditioned):
        fit_expansion(TraceSamples(tuple((t, 1.0 / t) for t in ts)))


# === Fit vs prediction ===

def test_predicted_expansions():
    square = predicted_expansion(FlatModel.SQUARE)
    assert square.as_float(-1) == pytest.approx(1 / (16 * math.pi))
    assert square.as_float(Fraction(-1, 2)) == pytest.approx(1 / (4 * math.sqrt(math.pi)))
    assert square.degree_zero == Fraction(1, 4)
    klein = predicted_expansion(FlatModel.KLEIN_BOTTLE)
    assert klein.as_float(-1) == pytest.approx(1 / (8 * math.pi))
    assert klein.as_float(Fraction(-1, 2)) == 0.0
    assert klein.degree_zero == 0


def test_verify_model_report_shape():
    report = verify_model(FlatModel.TORUS)
    assert set(report) == {"-1", "-0.5", "0"}
    for record in report.values():
        assert set(record) == {"fitted", "predicted", "abs_err", "rel_err"}


def test_verify_torus_tight():
    report = verify_model(FlatModel.TORUS)
    assert report["-1"]["predicted"] == pytest.approx(1 / (4 * math.pi))
    assert report["-1"]["rel_err"] < 1e-9


@pytest.mark.parametrize(
    "model",
    [FlatModel.TORUS, FlatModel.PILLOWCASE, FlatModel.SQUARE, FlatModel.MIRROR_TORUS],
)
def test_verify_glide_free_models_on_default_grid(model):
    report = verify_model(model)
    for record in report.values():
        err = record["rel_err"] if record["predicted"] != 0 else record["abs_err"]
        assert err < 1e-6


def test_verify_klein_bottle_exposes_glide_geodesic_on_default_grid():
    """The Klein bottle misses 1e-6 on the default grid; this is real.

    The orientation-reversing glide axis contributes an exact lattice term
    2 exp(-1/(16 t)) / sqrt(16 pi t) to the trace.  At t = 1e-2 that term
    is 5.4e-3: far above the fit tolerance, decaying too slowly for this
    grid.  The fit errors below are the measured consequence, frozen so a
    silent behavior change cannot pass unnoticed.  On grids starting at
    t = 1e-3 the term is ~1e-25 and the same fit is clean (next test).
    """
    report = verify_model(FlatModel.KLEIN_BOTTLE)
    assert 1e-5 < report["-1"]["rel_err"] < 1e-4
    assert 1e-4 < report["-0.5"]["abs_err"] < 1e-3
    assert 1e-3 < report["0"]["abs_err"] < 1e-2
    t = 1e-2
    glide = 2 * math.exp(-1 / (16 * t)) / math.sqrt(16 * math.pi * t)
    residual = heat_trace(FlatModel.KLEIN_BOTTLE, t) - (
        1 / (8 * math.pi * t)
    )
    assert residual == pytest.approx(glide, rel=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_verify_all_models_clean_in_asymptotic_regime(model):
    report = verify_model(model, times=tuple(1e-3 * 0.7**i for i in range(12)))
    for record in report.values():
        err = record["rel_err"] if record["predicted"] != 0 else record["abs_err"]
        assert err < 1e-9


# === Pinned fits and reports ===

# The bench grids, default_grid(start) for each model at both starts.  A
# correctly rounded solution is unique, so equality with the exact least
# squares pins every bit of each coefficient.
BENCH_GRIDS = [(model.value, start) for model in ALL_MODELS for start in (1e-2, 1e-3)]

# predicted_expansion's floats at degrees -1, -1/2 and 0.
PINNED_PREDICTIONS = {
    "torus": (0.07957747154594767, 0.0, 0.0),
    "klein": (0.039788735772973836, 0.0, 0.0),
    "pillowcase": (0.039788735772973836, 0.0, 0.5),
    "square": (0.019894367886486918, 0.14104739588693907, 0.25),
    "mirror-torus": (0.039788735772973836, 0.14104739588693907, 0.0),
}
REPORT_FIELDS = ("fitted", "predicted", "abs_err", "rel_err")


@pytest.mark.parametrize("model, start", BENCH_GRIDS)
def test_fit_equals_pinned_values(model, start):
    samples = sample_trace(FlatModel(model), default_grid(start))
    fit = fit_expansion(samples)
    assert_fit_is_exact(samples, fit)
    # 7962.77 at 1e-2 and 79493.3 at 1e-3, within 1e-12 of a 50-digit SVD.
    _, condition = oracle_fit(samples, FIT_DEGREES)
    assert abs(fit.condition - condition) <= 1e-12 * condition


@pytest.mark.parametrize("model, start", BENCH_GRIDS)
def test_verify_equals_pinned_reports(model, start):
    times = default_grid(start)
    report = verify_model(FlatModel(model), times=times)
    fitted = exact_least_squares(sample_trace(FlatModel(model), times))
    expected = {}
    for d, value, target in zip(FIT_DEGREES, fitted, PINNED_PREDICTIONS[model]):
        abs_err = abs(value - target)
        rel_err = abs_err / abs(target) if target != 0 else abs_err
        expected[degree_label(d)] = dict(zip(REPORT_FIELDS, (value, target, abs_err, rel_err)))
    assert report == expected
    assert list(report) == list(expected)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_verify_report_is_built_from_prediction_and_fit(model):
    times = default_grid(1e-2 * 10**0.05)
    fit = fit_expansion(sample_trace(model, times))
    predicted = predicted_expansion(model)
    expected = {}
    for d, fitted in fit.coefficients.items():
        target = predicted.as_float(d)
        abs_err = abs(fitted - target)
        rel_err = abs_err / abs(target) if target != 0 else abs_err
        expected[f"{float(d):g}"] = dict(zip(REPORT_FIELDS, (fitted, target, abs_err, rel_err)))
    assert verify_model(model, times=times) == expected


def test_mutating_a_result_leaves_the_next_call_unchanged():
    times = default_grid(1e-3)
    model = FlatModel.SQUARE
    report = verify_model(model, times=times)
    expected = {label: dict(record) for label, record in report.items()}
    for record in report.values():
        record["predicted"] = 123.0
    report.clear()
    fit = fit_expansion(sample_trace(model, times))
    fit.coefficients[Fraction(0)] = 123.0
    fit.coefficients.clear()
    expansion = predicted_expansion(model)
    coefficients = dict(expansion.coefficients)
    expansion.coefficients[Fraction(-1)] = 123.0
    assert predicted_expansion(model).coefficients == coefficients
    assert verify_model(model, times=times) == expected
    samples = sample_trace(model, times)
    assert list(fit_expansion(samples).coefficients.values()) == exact_least_squares(samples)

