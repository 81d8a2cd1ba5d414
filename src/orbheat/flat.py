"""Exact heat traces of the five flat orbifold quotients of a square torus.

Every model here is R^2 / Gamma where Gamma is generated by the unit
translation lattice Z^2 together with up to two point symmetries, so its
Laplace spectrum sits inside the square-torus spectrum {4 pi^2 (k^2+l^2)}
and the heat trace has a closed form in the one-dimensional theta sum

    theta1(t) = sum_{k in Z} exp(-4 pi^2 k^2 t)
              = (4 pi t)^(-1/2) sum_{k in Z} exp(-k^2 / (4t))    (Jacobi).

theta1 sums the direct series for t >= 1/(4 pi), where the two exponents
are equal, and the dual one below, so at every t > 0 it needs at most 4
terms at the default tolerance and 16 at the tightest one.

model         quotient map              area  mirror length  trace
torus         identity                   1        0          theta1^2
klein         glide (x+1/2, -y)          1/2      0          theta1(4t) + (theta1^2 - theta1)/2
pillowcase    involution -I              1/2      0          (theta1^2 + 1)/2
square        Klein four <-I, refl>      1/4      2          ((theta1 + 1)/2)^2
mirror-torus  reflection (-x, y)         1/2      2          (theta1^2 + theta1)/2

brute_force_trace recomputes the trace a second, independent way: average
over the deck group of character sums on the lattice eigenbasis, with
exact +-1 phases.  The two routes agreeing at several times is the main
numerical check that the expansion coefficients are wired to a genuine
spectrum.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .heat import HeatExpansion, MetricData, full_expansion
from .signature import OrbifoldSignature


class InsufficientSamples(ValueError):
    """Fewer sample points than fit degrees."""


class IllConditioned(ArithmeticError):
    """Fit design matrix condition number exceeds the configured limit."""


class FlatModel(Enum):
    TORUS = "torus"
    KLEIN_BOTTLE = "klein"
    PILLOWCASE = "pillowcase"
    SQUARE = "square"
    MIRROR_TORUS = "mirror-torus"

    @property
    def area(self) -> Fraction:
        return _MODEL_AREA[self]

    @property
    def mirror_length(self) -> int:
        return _MODEL_MIRROR_LENGTH[self]

    @property
    def signature(self) -> OrbifoldSignature:
        return _MODEL_SIGNATURE[self]


_MODEL_AREA = {
    FlatModel.TORUS: Fraction(1),
    FlatModel.KLEIN_BOTTLE: Fraction(1, 2),
    FlatModel.PILLOWCASE: Fraction(1, 2),
    FlatModel.SQUARE: Fraction(1, 4),
    FlatModel.MIRROR_TORUS: Fraction(1, 2),
}

_MODEL_MIRROR_LENGTH = {
    FlatModel.TORUS: 0,
    FlatModel.KLEIN_BOTTLE: 0,
    FlatModel.PILLOWCASE: 0,
    FlatModel.SQUARE: 2,
    FlatModel.MIRROR_TORUS: 2,
}

_MODEL_SIGNATURE = {
    FlatModel.TORUS: OrbifoldSignature(handles=1),
    FlatModel.KLEIN_BOTTLE: OrbifoldSignature(crosscaps=2),
    FlatModel.PILLOWCASE: OrbifoldSignature(cone_points=(2, 2, 2, 2)),
    FlatModel.SQUARE: OrbifoldSignature(mirror_boundaries=((2, 2, 2, 2),)),
    FlatModel.MIRROR_TORUS: OrbifoldSignature(mirror_boundaries=((), ())),
}

# Deck transformations x -> (a x1 + bx, d x2 + by) mod Z^2, with a, d = +-1
# and exact half-integer translation parts.
_HALF = Fraction(1, 2)
_MODEL_DECK = {
    FlatModel.TORUS: ((1, 1, 0, 0),),
    FlatModel.KLEIN_BOTTLE: ((1, 1, 0, 0), (1, -1, _HALF, 0)),
    FlatModel.PILLOWCASE: ((1, 1, 0, 0), (-1, -1, 0, 0)),
    FlatModel.SQUARE: ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0)),
    FlatModel.MIRROR_TORUS: ((1, 1, 0, 0), (-1, 1, 0, 0)),
}

_FOUR_PI_SQ = 4.0 * math.pi * math.pi
_SQRT_FOUR_PI = math.sqrt(4.0 * math.pi)
# Below this t, where the exponents 4 pi^2 t and 1/(4t) are equal, theta1
# sums Jacobi's dual series instead of the direct one.
_DUAL_BELOW = 1.0 / (4.0 * math.pi)


def theta1(t: float, eps: float = 1e-15) -> float:
    """One-dimensional lattice sum sum_{k in Z} exp(-4 pi^2 k^2 t).

    Both this series and Jacobi's dual form

        theta1(t) = (4 pi t)^(-1/2) sum_{k in Z} exp(-k^2 / (4t))

    are sums of exp(-a k^2); the loop sums the direct one (a = 4 pi^2 t)
    for t >= 1/(4 pi) and the dual one (a = 1/(4t)) below, so a >= pi
    and the terms fall at least as fast as exp(-pi k^2): at every t > 0
    the loop runs at most 4 times at the default eps and 16 at any eps.
    The sum is truncated as soon as a bound on the whole omitted tail
    drops below eps times the current partial sum.
    """
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"t must be finite and > 0, got {t!r}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if t >= _DUAL_BELOW:
        a, scale = _FOUR_PI_SQ * t, 1.0
    else:
        # sqrt(t) * sqrt(4 pi) rather than sqrt(4 pi t): at subnormal t
        # the product 4 pi t would lose digits before the root.
        a, scale = 0.25 / t, math.sqrt(t) * _SQRT_FOUR_PI
    total = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-a * k * k)
        # The whole remaining tail is a sub-geometric series with ratio
        # at most exp(-a(2k+1)); stop only once the tail bound, not just
        # the next term, is below eps times the sum so far.
        tail_bound = term / -math.expm1(-a * (2 * k + 1))
        if tail_bound <= eps * total:
            return total / scale
        total += term
        k += 1


def heat_trace(model: FlatModel, t: float) -> float:
    """Exact heat trace of the model at time t, via the closed theta forms.

    Raises ValueError where the trace, about area / (4 pi t), exceeds the
    largest float: below t ~ 1e-309.
    """
    th = theta1(t)
    if model is FlatModel.TORUS:
        value = th * th
    elif model is FlatModel.KLEIN_BOTTLE:
        # 4t overflows only where theta1 is 1.0 at both t and 4t.
        value = theta1(min(4.0 * t, sys.float_info.max)) + (th * th - th) / 2.0
    elif model is FlatModel.PILLOWCASE:
        value = (th * th + 1.0) / 2.0
    elif model is FlatModel.SQUARE:
        half = (th + 1.0) / 2.0
        value = half * half
    elif model is FlatModel.MIRROR_TORUS:
        value = (th * th + th) / 2.0
    else:
        raise ValueError(f"unknown model {model!r}")
    if math.isinf(value):
        raise ValueError(
            f"the {model.value} heat trace at t = {t!r} exceeds the largest float"
        )
    return value


# Largest shell index n = cutoff / (4 pi^2) the multiplicity oracle accepts.
# Its double loop visits about 4n lattice points, so this cap keeps one
# call to seconds (the Klein bottle: about 4 s at the cap); it is fixed,
# not an option.
MULTIPLICITY_SHELL_LIMIT = 100_000


def eigenvalue_multiplicities(model: FlatModel, cutoff: float) -> dict:
    """Multiplicities of eigenvalues 4 pi^2 n, keyed by n = k^2 + l^2 <= cutoff/(4 pi^2).

    Computed by averaging deck characters over the torus eigenbasis: the
    lattice vector (k, l) survives g = (diag(a, d), b) exactly when the
    linear part fixes it, and then contributes the exact phase
    cos(2 pi (k, l) . b) which is +-1 for half-integer translations.
    All arithmetic is exact, so the averaged counts are exact integers.
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
    kmax = math.isqrt(nmax)
    deck = _MODEL_DECK[model]
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
    mults = {}
    for n, total in sorted(acc.items()):
        count = total / order
        if count.denominator != 1 or count < 0:
            raise ArithmeticError(
                f"non-integer multiplicity {count} at shell {n} for {model.value}"
            )
        if count:
            mults[n] = int(count)
    return mults


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


def default_grid(start: float = 1e-2, ratio: float = 0.7, count: int = 12) -> tuple:
    """Geometric sample times start * ratio^i, i = 0..count-1 (decreasing)."""
    if not (start > 0) or not (0 < ratio < 1) or count < 1:
        raise ValueError("need start > 0, 0 < ratio < 1, count >= 1")
    return tuple(start * ratio**i for i in range(count))


@dataclass(frozen=True)
class TraceSamples:
    """Heat-trace samples (t, value), t strictly decreasing and positive."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.points)
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

    def to_csv(self) -> str:
        lines = ["t,value"]
        lines.extend(f"{t!r},{v!r}" for t, v in self.points)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TraceSamples":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.lower().startswith("t,"):
                continue
            t_str, v_str = line.split(",")
            rows.append((float(t_str), float(v_str)))
        rows.sort(key=lambda p: -p[0])
        return cls(tuple(rows))


def sample_trace(model: FlatModel, times=None) -> TraceSamples:
    """Sample the closed-form heat trace on a grid (default_grid() if None)."""
    if times is None:
        times = default_grid()
    points = tuple((float(t), heat_trace(model, float(t))) for t in times)
    return TraceSamples(points)


@dataclass(frozen=True)
class FitResult:
    """Least-squares expansion fit: coefficient per degree, plus diagnostics."""

    coefficients: dict
    residual: float
    condition: float


def fit_expansion(samples: TraceSamples, degrees, condition_limit: float = 1e12) -> FitResult:
    """Fit sum_d c_d t^d to the samples by least squares.

    Uses an orthogonal (SVD) solver on the t^d design matrix, never the
    normal equations.  Raises InsufficientSamples when there are fewer
    points than degrees and IllConditioned when the design matrix
    condition number exceeds condition_limit.
    """
    # Imported here so that the subcommands that fit nothing start without numpy.
    import numpy as np

    degs = tuple(Fraction(d) for d in degrees)
    if len(set(degs)) != len(degs):
        raise ValueError(f"fit degrees must be distinct, got {degrees!r}")
    if not degs:
        raise ValueError("need at least one fit degree")
    if len(samples.points) < len(degs):
        raise InsufficientSamples(
            f"{len(samples.points)} samples cannot determine {len(degs)} coefficients"
        )
    design = np.array(
        [[t ** float(d) for d in degs] for t in samples.times], dtype=float
    )
    target = np.array(samples.values, dtype=float)
    condition = float(np.linalg.cond(design))
    if not math.isfinite(condition) or condition > condition_limit:
        raise IllConditioned(
            f"design matrix condition {condition:.3e} exceeds limit {condition_limit:.3e}"
        )
    solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(design @ solution - target))
    coeffs = {d: float(c) for d, c in zip(degs, solution)}
    return FitResult(coefficients=coeffs, residual=residual, condition=condition)


def predicted_expansion(model: FlatModel) -> HeatExpansion:
    """The coefficients the heat-invariant formulas predict for the model."""
    metric = MetricData(
        curvature=0,
        area=float(model.area),
        mirror_length=float(model.mirror_length),
    )
    return full_expansion(model.signature, metric)


# The degrees that fit and verify solve for by default.
FIT_DEGREES = (Fraction(-1), Fraction(-1, 2), Fraction(0))


def degree_label(d: Fraction) -> str:
    """The report key of a degree: "-1", "-0.5", "0", ..."""
    return f"{float(d):g}"


def verify_model(model: FlatModel, degrees=FIT_DEGREES, times=None) -> dict:
    """Fit the sampled trace and compare against predicted coefficients.

    Returns {degree: {fitted, predicted, abs_err, rel_err}} with degree
    keys like "-1", "-0.5", "0".  rel_err falls back to the absolute error
    when the predicted value is zero.
    """
    samples = sample_trace(model, times)
    fit = fit_expansion(samples, degrees)
    predicted = predicted_expansion(model)
    report = {}
    for d in fit.coefficients:
        fitted = fit.coefficients[d]
        target = predicted.as_float(d)
        abs_err = abs(fitted - target)
        rel_err = abs_err / abs(target) if target != 0 else abs_err
        report[degree_label(d)] = {
            "fitted": fitted,
            "predicted": target,
            "abs_err": abs_err,
            "rel_err": rel_err,
        }
    return report
