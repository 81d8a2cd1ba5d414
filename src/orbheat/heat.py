"""Heat-trace expansion coefficients of closed 2-orbifolds.

For a closed 2-orbifold with constant curvature K, area V and total mirror
length L, the small-time heat trace expands as

    sum_j exp(-t lambda_j)
      ~  c[-1]/t + c[-1/2]/sqrt(t) + c[0] + c[1/2] sqrt(t) + c[1] t + ...

with the five leading coefficients

    c[-1]   =  V / (4 pi)
    c[-1/2] =  L / (8 sqrt(pi))
    c[0]    =  chi/6 + sum_cones (m^2-1)/(12 m) + sum_corners (n^2-1)/(24 n)
    c[1/2]  =  Q / (64 sqrt(pi)),  Q = integral of scalar curvature over
               the mirror locus (2 K L for constant curvature)
    c[1]    =  K^2 V / (60 pi)
               + K [ sum_cones (m^4+10m^2-11)/(360 m)
                     + sum_corners (n^4+10n^2-11)/(720 n) ]

The degree-0 coefficient depends only on the topology, so it is an exact
rational; 12 times it is the spectral constant c used by the classifier.
The singular-point contributions come from averaging the rotation kernel
over the local isotropy group: a cone of order m adds (1/m) times the
cosecant sums sum_j csc^2(pi j/m) / 4 at degree 0 and K sum_j csc^4(pi j/m) / 8
at degree 1, and a corner adds half of what a cone of its order adds.
Their closed forms live in the weights _c_weight and _degree_one_weight
alone, which signature.stratum_ratio sums over the strata; the tests
compare them with the cosecants summed term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .signature import (
    OrbifoldSignature,
    euler_characteristic,
    rational_from_json,
    rational_to_json,
    stratum_ratio,
)

DEGREES = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)

_REL_TOL_GAUSS_BONNET = 1e-12


class GaussBonnetViolation(ValueError):
    """Metric data whose area contradicts 2 pi chi = K V."""

    def __init__(self, chi: Fraction, curvature, expected_area: float, actual_area: float):
        super().__init__(
            f"area {actual_area!r} is inconsistent with Gauss-Bonnet: "
            f"chi = {chi}, K = {curvature} force area {expected_area!r}"
        )
        self.chi = chi
        self.curvature = curvature
        self.expected_area = expected_area
        self.actual_area = actual_area


def _finite(x) -> bool:
    return math.isfinite(float(x))


@dataclass(frozen=True)
class MetricData:
    """Constant-curvature metric data for a closed 2-orbifold.

    curvature                  K, kept exact when given as int or Fraction
    area                       total area, > 0
    mirror_length              total length of the mirror locus, >= 0
    mirror_curvature_integral  integral of the scalar curvature (2K for a
                               surface of Gauss curvature K) over the
                               mirror locus; None means the constant-
                               curvature value 2 * K * mirror_length
    """

    curvature: object
    area: float
    mirror_length: float = 0.0
    mirror_curvature_integral: float | None = None

    def __post_init__(self):
        if not _finite(self.curvature):
            raise ValueError(f"curvature must be finite, got {self.curvature!r}")
        if not _finite(self.area) or float(self.area) <= 0:
            raise ValueError(f"area must be finite and > 0, got {self.area!r}")
        if not _finite(self.mirror_length) or float(self.mirror_length) < 0:
            raise ValueError(
                f"mirror_length must be finite and >= 0, got {self.mirror_length!r}"
            )
        if self.mirror_curvature_integral is not None and not _finite(
            self.mirror_curvature_integral
        ):
            raise ValueError("mirror_curvature_integral must be finite or None")

    def curvature_over_mirror(self) -> float:
        if self.mirror_curvature_integral is not None:
            return float(self.mirror_curvature_integral)
        return 2.0 * float(self.curvature) * float(self.mirror_length)


def _c_weight(m: int) -> int:
    return (m - 1) ** 2


def c_ratio(handles: int, crosscaps: int, cones, boundaries) -> tuple:
    """The spectral constant c as a reduced (numerator, denominator) int pair.

    c = 4 - 4 handles - 2 crosscaps - 2 boundaries
        + sum_cones (m-1)^2/m + sum_corners (n-1)^2/(2n),

    which is 12 * (chi/6 + sum (m^2-1)/(12m) + sum (n^2-1)/(24n)) with chi
    expanded.  cones is a sequence of cone orders and boundaries a sequence
    of corner-order sequences, all >= 2.  Trading one handle for two
    crosscaps leaves c unchanged, so the counts need not be normalized.
    The denominator is positive.
    """
    base = 4 - 4 * handles - 2 * crosscaps - 2 * len(boundaries)
    return stratum_ratio(base, cones, boundaries, _c_weight)


def spectral_c(sig: OrbifoldSignature) -> Fraction:
    """The integer-normalized spectral constant c = 12 * degree-0 coefficient."""
    return Fraction(
        *c_ratio(sig.handles, sig.crosscaps, sig.cone_points, sig.mirror_boundaries)
    )


def degree_zero_term(sig: OrbifoldSignature) -> Fraction:
    """Exact degree-0 heat coefficient; purely topological."""
    return spectral_c(sig) / 12


def coefficient_minus_one(metric: MetricData) -> float:
    return float(metric.area) / (4.0 * math.pi)


def coefficient_minus_half(metric: MetricData) -> float:
    return float(metric.mirror_length) / (8.0 * math.sqrt(math.pi))


def coefficient_half(metric: MetricData) -> float:
    return metric.curvature_over_mirror() / (64.0 * math.sqrt(math.pi))


def _degree_one_weight(m: int) -> int:
    return m**4 + 10 * m * m - 11


def _singular_degree_one_sum(sig: OrbifoldSignature) -> Fraction:
    ratio = stratum_ratio(0, sig.cone_points, sig.mirror_boundaries, _degree_one_weight)
    return Fraction(*ratio) / 360


def coefficient_one(sig: OrbifoldSignature, metric: MetricData) -> float:
    """Degree-1 coefficient from the metric's area (no Gauss-Bonnet assumed)."""
    K = float(metric.curvature)
    smooth = K * K * float(metric.area) / (60.0 * math.pi)
    return smooth + K * float(_singular_degree_one_sum(sig))


def has_half_integer_terms(sig: OrbifoldSignature) -> bool:
    """Whether any half-integer powers of sqrt(t) occur in the expansion.

    They occur exactly when the orbifold has a mirror locus: the mirror is
    the only odd-dimensional stratum, and only odd-dimensional strata feed
    the odd powers of sqrt(t).
    """
    return sig.has_mirrors


@dataclass(frozen=True)
class HeatExpansion:
    """The five leading heat coefficients, keyed by exact degree.

    Degrees are Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), 1.  The
    degree-0 value is always an exact Fraction; degree 1 is exact whenever
    the curvature was given exactly; the rest are floats.
    """

    coefficients: dict

    def __post_init__(self):
        keys = set(self.coefficients)
        if keys != set(DEGREES):
            raise ValueError(f"expansion must carry exactly degrees {DEGREES}")
        if not isinstance(self.coefficients[Fraction(0)], Rational):
            raise ValueError("degree-0 coefficient must be exact")
        if float(self.coefficients[Fraction(-1)]) <= 0:
            raise ValueError("degree -1 coefficient (area term) must be positive")
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    def __getitem__(self, degree):
        return self.coefficients[Fraction(degree)]

    def as_float(self, degree) -> float:
        return float(self.coefficients[Fraction(degree)])

    @property
    def degree_zero(self) -> Fraction:
        return Fraction(self.coefficients[Fraction(0)])

    def to_json(self) -> dict:
        # Degree 0 is the one coefficient that is exact for every metric;
        # the rest serialize as floats.
        out = {}
        for degree in DEGREES:
            key = f"deg_{float(degree):g}"
            if degree == 0:
                out[key] = rational_to_json(self.degree_zero)
            else:
                out[key] = self.as_float(degree)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "HeatExpansion":
        coefficients = {}
        for degree in DEGREES:
            raw = obj[f"deg_{float(degree):g}"]
            if isinstance(raw, dict):
                coefficients[degree] = rational_from_json(raw)
            else:
                coefficients[degree] = float(raw)
        return cls(coefficients)


def full_expansion(sig: OrbifoldSignature, metric: MetricData) -> HeatExpansion:
    """All five leading coefficients for a constant-curvature structure.

    Raises ValueError when the metric's mirror data contradicts the
    signature (mirror length must be positive exactly when mirror
    boundaries exist), and GaussBonnetViolation when K != 0 and the area
    differs from 2 pi chi / K by more than 1e-12 relative.

    Degree 1 uses the Gauss-Bonnet-exact form K*(chi/30 + singular sums)
    when K != 0, which keeps it an exact Fraction for exact K; it agrees
    with coefficient_one (the area form) within the enforced tolerance.
    """
    chi = euler_characteristic(sig)
    L = float(metric.mirror_length)
    if sig.has_mirrors and L <= 0:
        raise ValueError("signature has mirror boundaries but mirror_length is 0")
    if not sig.has_mirrors:
        if L != 0:
            raise ValueError("mirror_length given for a signature without mirrors")
        if metric.mirror_curvature_integral not in (None, 0, 0.0):
            raise ValueError(
                "mirror_curvature_integral given for a signature without mirrors"
            )

    K = metric.curvature
    lhs = float(K) * float(metric.area)
    rhs = 2.0 * math.pi * float(chi)
    scale = max(abs(lhs), abs(rhs))
    if scale > 0 and abs(lhs - rhs) > _REL_TOL_GAUSS_BONNET * scale:
        expected = rhs / float(K) if float(K) != 0.0 else float("nan")
        raise GaussBonnetViolation(chi, K, expected, float(metric.area))
    if float(K) != 0.0:
        K_exact = K if isinstance(K, Rational) else Fraction(float(K))
        degree_one = K_exact * (chi / 30 + _singular_degree_one_sum(sig))
    else:
        degree_one = Fraction(0)

    return HeatExpansion(
        {
            Fraction(-1): coefficient_minus_one(metric),
            Fraction(-1, 2): coefficient_minus_half(metric),
            Fraction(0): degree_zero_term(sig),
            Fraction(1, 2): coefficient_half(metric),
            Fraction(1): degree_one,
        }
    )
