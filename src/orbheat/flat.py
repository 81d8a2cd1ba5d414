"""Exact heat traces of the five flat orbifold quotients of a square torus.

Every model here is R^2 / Gamma where Gamma is generated by the unit
translation lattice Z^2 together with up to two point symmetries, so its
Laplace spectrum sits inside the square-torus spectrum {4 pi^2 (k^2+l^2)}.
One table gives each model's signature and deck, the maps
x -> (a x1 + bx, d x2 + by) of Gamma mod Z^2; area, mirror length and trace
are all read from the deck.  The trace is Donnelly's group average
(1/|G|) sum_g f(a, bx) f(d, by), where each axis sums exp(-4 pi^2 k^2 t)
exp(2 pi i k b) over the k its sign fixes: 1 for sign -1 (only k = 0),
theta1(t) for sign +1 and no shift, 2 theta1(4t) - theta1(t) for shift 1/2:

    theta1(t) = sum_{k in Z} exp(-4 pi^2 k^2 t)
              = (4 pi t)^(-1/2) sum_{k in Z} exp(-k^2 / (4t))    (Jacobi).

The identity gives area = 1/|G|, each reflection with no shift along its
mirror adds 4/|G| to the mirror length, a half-turn feeds the constant term
and a glide no power of t.  The average gives

model         deck besides the identity  area  mirror length  trace
torus         -                          1        0          theta1^2
klein         glide (x+1/2, -y)          1/2      0          theta1(4t) + (theta1^2 - theta1)/2
pillowcase    involution -I              1/2      0          (theta1^2 + 1)/2
square        -I and two reflections     1/4      2          ((theta1 + 1)/2)^2
mirror-torus  reflection (-x, y)         1/2      2          (theta1^2 + theta1)/2

theta1 sums the direct series for t >= 1/(4 pi), where the two exponents
are equal, and the dual one below, so at every t > 0 it needs at most 4
terms.

brute_force_trace recomputes the trace a second, independent way: average
over the deck group of character sums on the lattice eigenbasis, with
exact +-1 phases.  The two routes agreeing at several times is the main
numerical check that the expansion coefficients are wired to a genuine
spectrum.  Its multiplicity tables are cached per (model, shell count),
so a sweep over t at one cutoff computes the table once; the cache keeps
the 64 most recently used tables as two int arrays each, 24.7 MB
(tracemalloc) when all 64 reach shell MULTIPLICITY_SHELL_LIMIT.

fit_expansion recovers the coefficients from trace samples, and
verify_model compares them with predicted_expansion, the one function
here that needs heat's formulas: it imports heat when it runs, so a
process that only samples or fits traces never loads heat.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache

from ._record import Record
from .signature import OrbifoldSignature


class InsufficientSamples(ValueError):
    """Fewer sample points than fit degrees."""


class IllConditioned(ArithmeticError):
    """Fit design matrix condition number exceeds FIT_CONDITION_LIMIT."""


class FlatModel(Enum):
    TORUS = "torus"
    KLEIN_BOTTLE = "klein"
    PILLOWCASE = "pillowcase"
    SQUARE = "square"
    MIRROR_TORUS = "mirror-torus"

    # Members are singletons, so identity hashing is exact; it runs in C,
    # unlike Enum's hash of the member name, which heat_trace's per-call
    # table lookup would pay for.
    __hash__ = object.__hash__

    @property
    def signature(self) -> OrbifoldSignature:
        return _MODELS[self][0]

    @property
    def area(self) -> Fraction:
        return Fraction(1, len(_MODELS[self][1]))

    @property
    def mirror_length(self) -> Fraction:
        # 4/|G| for each reflection with no shift along its mirror: the
        # deck elements whose axis sums are 1 and theta1(t).
        _, pairs, _ = _TRACE_TERMS[self]
        return Fraction(4 * (pairs.count((0, 1)) + pairs.count((1, 0))), len(pairs))


# Each model's signature and deck: the maps x -> (a x1 + bx, d x2 + by) mod
# Z^2, with a, d = +-1 and exact half-integer translation parts.
_HALF = Fraction(1, 2)
_MODELS = {
    FlatModel.TORUS: (OrbifoldSignature(handles=1), ((1, 1, 0, 0),)),
    FlatModel.KLEIN_BOTTLE: (OrbifoldSignature(crosscaps=2),
                             ((1, 1, 0, 0), (1, -1, _HALF, 0))),
    FlatModel.PILLOWCASE: (OrbifoldSignature(cone_points=(2, 2, 2, 2)),
                           ((1, 1, 0, 0), (-1, -1, 0, 0))),
    FlatModel.SQUARE: (OrbifoldSignature(mirror_boundaries=((2, 2, 2, 2),)),
                       ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0))),
    FlatModel.MIRROR_TORUS: (OrbifoldSignature(mirror_boundaries=((), ())),
                             ((1, 1, 0, 0), (-1, 1, 0, 0))),
}


def _trace_terms(deck) -> tuple:
    """1/|G|, each deck element's pair of axis-sum indices, and whether one is 2.

    Index 0 is the sum 1, 1 is theta1(t) and 2 is 2 theta1(4t) - theta1(t).
    """
    def axis(sign, shift):
        return 0 if sign == -1 else 1 if shift == 0 else 2

    pairs = tuple((axis(a, bx), axis(d, by)) for a, d, bx, by in deck)
    return 1.0 / len(deck), pairs, any(2 in pair for pair in pairs)


_TRACE_TERMS = {model: _trace_terms(deck) for model, (_, deck) in _MODELS.items()}

_FOUR_PI_SQ = 4.0 * math.pi * math.pi
_SQRT_FOUR_PI = math.sqrt(4.0 * math.pi)
# Below this t, where the exponents 4 pi^2 t and 1/(4t) are equal, theta1
# sums Jacobi's dual series instead of the direct one.
_DUAL_BELOW = 1.0 / (4.0 * math.pi)


def theta1(t: float) -> float:
    """One-dimensional lattice sum sum_{k in Z} exp(-4 pi^2 k^2 t).

    Both this series and Jacobi's dual form

        theta1(t) = (4 pi t)^(-1/2) sum_{k in Z} exp(-k^2 / (4t))

    are sums of exp(-a k^2); the loop sums the direct one (a = 4 pi^2 t)
    for t >= 1/(4 pi) and the dual one (a = 1/(4t)) below, so a >= pi
    and the terms fall at least as fast as exp(-pi k^2): at every t > 0
    the loop runs at most 4 times.  The sum is truncated as soon as a
    bound on the whole omitted tail drops below 1e-15 times the current
    partial sum.  From a = 40 on, that is t < 1/160 or t > 40/(4 pi^2),
    the first term 2 exp(-a) already passes that test, so the sum is 1.
    """
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    if t >= _DUAL_BELOW:
        a, scale = _FOUR_PI_SQ * t, 1.0
    else:
        # sqrt(t) * sqrt(4 pi) rather than sqrt(4 pi t): at subnormal t
        # the product 4 pi t would lose digits before the root.
        a, scale = 0.25 / t, math.sqrt(t) * _SQRT_FOUR_PI
    if a > 40.0:
        return 1.0 / scale
    total = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-a * k * k)
        # The whole remaining tail is a sub-geometric series with ratio
        # at most exp(-a(2k+1)); stop only once the tail bound, not just
        # the next term, is below 1e-15 times the sum so far.
        tail_bound = term / -math.expm1(-a * (2 * k + 1))
        if tail_bound <= 1e-15 * total:
            return total / scale
        total += term
        k += 1


def heat_trace(model: FlatModel, t: float) -> float:
    """Exact heat trace of the model at time t: the deck average of theta sums.

    Raises ValueError where the trace overflows a double, that is where
    area/(4 pi t) exceeds the largest float.
    """
    weight, pairs, has_glide = _TRACE_TERMS[model]
    th = theta1(t)
    if has_glide:
        # 4t overflows only where theta1 is 1.0 at both t and 4t.
        sums = (1.0, th, 2.0 * theta1(min(4.0 * t, sys.float_info.max)) - th)
    else:
        sums = (1.0, th)
    value = 0.0
    for i, j in pairs:
        # Weighting one factor first keeps the product finite wherever
        # the average is.
        value += sums[i] * weight * sums[j]
    if math.isinf(value):
        raise ValueError(
            f"the {model.value} heat trace at t = {t!r} exceeds the largest float"
        )
    return value


# Largest shell index n = cutoff / (4 pi^2) the multiplicity oracle accepts.
# Its double loop visits about 4n lattice points, so this cap keeps one
# uncached call to seconds (the Klein bottle: about 4 s at the cap), and
# a cached table to 385 KB, so the cache's 64 tables to 24.7 MB at most;
# it is fixed, not an option.
MULTIPLICITY_SHELL_LIMIT = 100_000
# Multiplicity tables kept, keyed by (model, shell count), least recently
# used dropped first.  A spectra sweep reuses about 55 of them, the small
# cutoffs of its five models; a one-off large table ages out.
_SHELL_TABLES = 64


def eigenvalue_multiplicities(model: FlatModel, cutoff: float) -> dict:
    """Multiplicities of eigenvalues 4 pi^2 n, keyed by n = k^2 + l^2 <= cutoff/(4 pi^2).

    Computed by averaging deck characters over the torus eigenbasis: the
    lattice vector (k, l) survives g = (diag(a, d), b) exactly when the
    linear part fixes it, and then contributes the exact phase
    cos(2 pi (k, l) . b) which is +-1 for half-integer translations.
    All arithmetic is exact, so the averaged counts are exact integers.
    The table is computed once per (model, shell count) and cached; each
    call returns a new dict, in ascending n.
    Raises ValueError when the cutoff reaches past shell
    MULTIPLICITY_SHELL_LIMIT.
    """
    if not (cutoff > 0) or not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite and > 0, got {cutoff!r}")
    nmax = int(cutoff / _FOUR_PI_SQ)
    if nmax > MULTIPLICITY_SHELL_LIMIT:
        raise ValueError(
            f"cutoff {cutoff!r} reaches past shell {MULTIPLICITY_SHELL_LIMIT}, "
            "the multiplicity oracle's limit"
        )
    shells, counts = _shell_table(model, nmax)
    return dict(zip(shells, counts))


@lru_cache(maxsize=_SHELL_TABLES)
def _shell_table(model: FlatModel, nmax: int) -> tuple:
    """The model's nonzero multiplicities at shells n <= nmax: two arrays, shells ascending.

    Arrays of 8-byte ints, not tuples of pairs: a table at shell 10,000
    takes 44 KB, about a sixth of the tuples' size.
    """
    kmax = math.isqrt(nmax)
    deck = _MODELS[model][1]
    order = len(deck)
    acc = defaultdict(Fraction)
    for k in range(-kmax, kmax + 1):
        for l in range(-kmax, kmax + 1):
            n = k * k + l * l
            if n > nmax:
                continue
            for a, d, bx, by in deck:
                if (a == 1 or k == 0) and (d == 1 or l == 0):
                    phase = Fraction(k) * bx + Fraction(l) * by
                    acc[n] += 1 if phase.denominator == 1 else -1
    shells, counts = [], []
    for n, total in sorted(acc.items()):
        count = total / order
        if count.denominator != 1 or count < 0:
            raise ArithmeticError(
                f"non-integer multiplicity {count} at shell {n} for {model.value}"
            )
        if count:
            shells.append(n)
            counts.append(int(count))
    return array("q", shells), array("q", counts)


def brute_force_trace(model: FlatModel, t: float, cutoff: float) -> float:
    """Deck-averaged spectral sum sum_n mult(n) exp(-4 pi^2 n t), n <= cutoff/(4 pi^2).

    Independent of the closed theta forms in heat_trace: the only shared
    ingredient is the lattice itself.  Shells are accumulated in order of
    decreasing term magnitude with compensated summation.
    """
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    mults = eigenvalue_multiplicities(model, cutoff)
    return math.fsum(
        mult * math.exp(-_FOUR_PI_SQ * n * t) for n, mult in sorted(mults.items())
    )


def default_grid(start: float = 1e-2) -> tuple:
    """The 12 geometric sample times start * 0.7^i, i = 0..11 (decreasing)."""
    if not (start > 0) or not math.isfinite(start):
        raise ValueError(f"start must be finite and > 0, got {start!r}")
    return tuple(start * 0.7**i for i in range(12))


class TraceSamples(Record):
    """Heat-trace samples (t, value), t strictly decreasing and positive."""

    __slots__ = ("points",)

    def __init__(self, points: tuple):
        pts = tuple((float(t), float(v)) for t, v in points)
        if not pts:
            raise ValueError("need at least one sample point")
        for t, v in pts:
            if not (t > 0 and math.isfinite(t) and math.isfinite(v)):
                raise ValueError(f"bad sample point ({t!r}, {v!r})")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if not t1 < t0:
                raise ValueError("sample times must be strictly decreasing")
        object.__setattr__(self, "points", pts)

    @property
    def times(self) -> tuple:
        return tuple(t for t, _ in self.points)

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.points)


def sample_trace(model: FlatModel, times=None) -> TraceSamples:
    """Sample the closed-form heat trace on a grid (default_grid() if None)."""
    if times is None:
        times = default_grid()
    points = tuple((t, heat_trace(model, t)) for t in map(float, times))
    return TraceSamples(points)


class FitResult(Record):
    """Least-squares expansion fit: coefficient per degree, plus diagnostics.

    Like its coefficient dict, a fit result is not hashable.
    """

    __slots__ = ("coefficients", "residual", "condition")

    def __init__(self, coefficients: dict, residual: float, condition: float):
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "condition", condition)

    __hash__ = None


# The degrees that fit and verify solve for; no caller chooses others.
FIT_DEGREES = (Fraction(-1), Fraction(-1, 2), Fraction(0))
# The float powers of the t^-1 and t^-1/2 design columns; degree 0's
# column is ones, which _lstsq implies.
_FIT_POWERS = (-1.0, -0.5)
# Largest design-matrix condition number fit_expansion solves for; fixed,
# not an option.
FIT_CONDITION_LIMIT = 1e12


def fit_expansion(samples: TraceSamples) -> FitResult:
    """Fit sum_d c_d t^d, d in FIT_DEGREES, to the samples by least squares.

    The design matrix has the columns t^-1, t^-1/2 and ones.  It and the
    samples are floats, so their normal equations hold exactly in ints:
    the coefficients are the exact least-squares solution of the sampled
    data, each rounded once to the nearest float, and the condition
    number is the design matrix's sigma_max / sigma_min to within a few
    ulps.
    Raises InsufficientSamples when there are fewer points than degrees,
    before solving, IllConditioned when the condition exceeds
    FIT_CONDITION_LIMIT or the design matrix is singular, and ValueError,
    after the InsufficientSamples check, when a sample time is so small
    (below about 5.6e-309) that its t^-1 lies past the float range, or
    when a coefficient does.
    """
    if len(samples.points) < len(FIT_DEGREES):
        raise InsufficientSamples(
            f"{len(samples.points)} samples cannot determine {len(FIT_DEGREES)} coefficients"
        )
    # Imported here, so that a process that fits nothing never compiles it.
    from . import _lstsq

    times, values = zip(*samples.points)
    try:
        a, b = [[t**e for t in times] for e in _FIT_POWERS]
    except OverflowError:
        # t^-1 grows as t shrinks, so the least time overflows if any does.
        raise ValueError(
            f"sample time {min(times)!r} is too small: its t^-1 exceeds the largest float"
        ) from None
    condition, system = _lstsq.normal_equations(a, b, values)
    if not math.isfinite(condition) or condition > FIT_CONDITION_LIMIT:
        raise IllConditioned(
            f"design matrix condition {condition:.3e} exceeds limit {FIT_CONDITION_LIMIT:.3e}"
        )
    solution, residual = _lstsq.solve(system)
    return FitResult(
        coefficients=dict(zip(FIT_DEGREES, solution)), residual=residual, condition=condition
    )


def predicted_expansion(model: FlatModel):
    """The heat.HeatExpansion that the heat-invariant formulas predict for the model."""
    # Imported here, so that a process that predicts nothing never loads heat.
    from .heat import MetricData, full_expansion

    metric = MetricData(
        curvature=0,
        area=float(model.area),
        mirror_length=float(model.mirror_length),
    )
    return full_expansion(model.signature, metric)


def degree_label(d: Fraction) -> str:
    """The report key of a degree: "-1", "-0.5", "0", ..."""
    return f"{float(d):g}"


@cache
def _targets(model: FlatModel) -> tuple:
    """(degree_label(d), predicted float) for each d in FIT_DEGREES.

    A constant of the model, so it is computed once per process; a tuple,
    unlike the HeatExpansion it is read from, cannot be changed by a caller.
    """
    predicted = predicted_expansion(model)
    return tuple((degree_label(d), predicted.as_float(d)) for d in FIT_DEGREES)


def verify_model(model: FlatModel, times=None) -> dict:
    """Fit the sampled trace at FIT_DEGREES and compare against predicted coefficients.

    Returns {degree: {fitted, predicted, abs_err, rel_err}} with degree
    keys like "-1", "-0.5", "0".  rel_err falls back to the absolute error
    when the predicted value is zero.
    """
    samples = sample_trace(model, times)
    fit = fit_expansion(samples)
    report = {}
    # The fit's coefficients come in FIT_DEGREES order, as the targets do.
    for (label, target), fitted in zip(_targets(model), fit.coefficients.values()):
        abs_err = abs(fitted - target)
        rel_err = abs_err / abs(target) if target != 0 else abs_err
        report[label] = {
            "fitted": fitted,
            "predicted": target,
            "abs_err": abs_err,
            "rel_err": rel_err,
        }
    return report
