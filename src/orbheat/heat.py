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
Their closed forms, c and the degree-0 coefficient c/12 (degree_zero_term,
which full_expansion reads from there) live in signature beside
stratum_ratio, the walk over the strata; this module holds what depends
on the metric (K, V, L).
HeatExpansion.to_text and to_json render an expansion, and they alone
decide which of its coefficients is past the float range.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational

from ._record import Record
from .signature import (
    OrbifoldSignature,
    _singular_degree_one_sum,
    _text,
    degree_zero_term,
    euler_characteristic,
    rational_to_json,
)

DEGREES = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)

_REL_TOL_GAUSS_BONNET = 1e-12

# 1/(60 pi) from 1/pi to 64 digits, so that coefficient_one rounds its exact sum once.
_ONE_OVER_60_PI = Fraction("0.3183098861837906715377675267450287240689192914809128974953346881") / 60


class GaussBonnetViolation(ValueError):
    """Metric data whose area contradicts 2 pi chi = K V."""

    def __init__(self, chi: Fraction, curvature, expected_area: float, actual_area: float):
        if curvature == 0:
            forced = ": no area satisfies 2 pi chi = K V"
        else:
            forced = f" force area {expected_area!r}"
        super().__init__(
            f"area {actual_area!r} is inconsistent with Gauss-Bonnet: "
            f"chi = {_text(chi)}, K = {_text(curvature)}{forced}"
        )
        self.chi = chi
        self.curvature = curvature
        self.expected_area = expected_area
        self.actual_area = actual_area


class MetricData(Record):
    """Constant-curvature metric data for a closed 2-orbifold.

    curvature      K, kept exact when given as int or Fraction
    area           total area, > 0
    mirror_length  total length of the mirror locus, >= 0
    """

    __slots__ = ("curvature", "area", "mirror_length")

    def __init__(self, curvature, area: float, mirror_length: float = 0.0):
        # Exact comparisons with the largest float: nan fails them, and an
        # exact value past the float range fails them without a conversion.
        top = sys.float_info.max
        if not abs(curvature) <= top:
            raise ValueError("curvature must be finite and within the float range")
        if not (abs(area) <= top and float(area) > 0):
            raise ValueError(f"area must be finite and > 0, got {area!r}")
        if not (abs(mirror_length) <= top and float(mirror_length) >= 0):
            raise ValueError(
                f"mirror_length must be finite and >= 0, got {mirror_length!r}"
            )
        object.__setattr__(self, "curvature", curvature)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "mirror_length", mirror_length)


def coefficient_minus_one(metric: MetricData) -> float:
    return float(metric.area) / (4.0 * math.pi)


def coefficient_minus_half(metric: MetricData) -> float:
    return float(metric.mirror_length) / (8.0 * math.sqrt(math.pi)) or 0.0  # not -0.0


def coefficient_half(metric: MetricData) -> float:
    """Degree-1/2 coefficient Q / (64 sqrt(pi)), Q = 2 K L.

    +-inf where it is past the float range; full_expansion stores that for
    to_text and to_json to refuse.  A zero is +0.0, also at K < 0 or L = -0.0.
    """
    # The 2 of Q = 2 K L cancels first, so no 2 K L can overflow, and L is
    # divided first where K L alone would.
    K, L = float(metric.curvature), float(metric.mirror_length)
    value = K * L / (32.0 * math.sqrt(math.pi))
    return K * (L / (32.0 * math.sqrt(math.pi))) if math.isinf(value) else value or 0.0


def coefficient_one(sig: OrbifoldSignature, metric: MetricData) -> float:
    """Degree-1 coefficient from the metric's area (no Gauss-Bonnet assumed).

    The float of one exact sum, K^2 V / (60 pi) with a 64-digit 1/pi plus K
    times the cone/corner sum, so it is rounded once, also where the two
    terms nearly cancel.  Raises ValueError where that sum is past the
    float range; it never returns +-inf.
    """
    K = Fraction(metric.curvature)
    exact = K * (K * Fraction(metric.area) * _ONE_OVER_60_PI + _singular_degree_one_sum(sig))
    try:
        return float(exact)
    except OverflowError:
        raise ValueError("the degree 1 coefficient is past the float range") from None


def has_half_integer_terms(sig: OrbifoldSignature) -> bool:
    """Whether any half-integer powers of sqrt(t) occur in the expansion.

    They occur exactly when the orbifold has a mirror locus: the mirror is
    the only odd-dimensional stratum, and only odd-dimensional strata feed
    the odd powers of sqrt(t).
    """
    return sig.has_mirrors


class HeatExpansion(Record):
    """The five leading heat coefficients, keyed by exact degree.

    Degrees are Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), 1.  The
    degree-0 value is always an exact Fraction, and full_expansion makes
    degree 1 one too; the rest are floats.  Like a dict, an expansion is
    not hashable.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: dict):
        keys = set(coefficients)
        if keys != set(DEGREES):
            raise ValueError(f"expansion must carry exactly degrees {DEGREES}")
        if not isinstance(coefficients[Fraction(0)], Rational):
            raise ValueError("degree-0 coefficient must be exact")
        if coefficients[Fraction(-1)] <= 0:  # not its float, which can overflow
            raise ValueError("degree -1 coefficient (area term) must be positive")
        object.__setattr__(self, "coefficients", dict(coefficients))

    __hash__ = None

    def __getitem__(self, degree):
        return self.coefficients[Fraction(degree)]

    def as_float(self, degree) -> float:
        return float(self.coefficients[Fraction(degree)])

    @property
    def degree_zero(self) -> Fraction:
        return Fraction(self.coefficients[Fraction(0)])

    def _refuse_past_float_range(self, json: bool) -> None:
        # JSON writes every degree but 0 as a float; text writes only the
        # floats as floats.  nan is refused with the values past the range.
        for degree in DEGREES:
            value = self[degree]
            written_as_float = degree != 0 if json else isinstance(value, float)
            if written_as_float and not abs(value) <= sys.float_info.max:
                where = " of JSON output" if json else ""
                raise ValueError(f"the degree {degree} coefficient is past the float range{where}")

    def to_text(self) -> str:
        """The lines "deg d: value", one per degree.

        One rule for both formats: a float past the float range is refused,
        an exact value only in JSON.  So this raises ValueError naming the
        first degree whose float is past it, and prints exact values in full.
        """
        self._refuse_past_float_range(json=False)
        return "\n".join(f"deg {degree}: {_text(self[degree])}" for degree in DEGREES)

    def to_json(self) -> dict:
        """{"deg_-1": ..., "deg_1": ...}: degree 0 exact, the others as floats.

        One rule for both formats: a float past the float range is refused,
        an exact value only in JSON.  So this raises ValueError naming the
        first degree but 0 whose value, exact or not, is past it.
        """
        self._refuse_past_float_range(json=True)
        return {
            f"deg_{float(degree):g}": rational_to_json(self.degree_zero)
            if degree == 0
            else self.as_float(degree)
            for degree in DEGREES
        }


def _forced_area(chi: Fraction, K: Rational) -> float:
    """The area 2 pi chi / K that Gauss-Bonnet forces, for an exact K.

    From the floats of chi and K where both are normal floats, else from
    their exact quotient: a subnormal float has lost precision, and one
    past the float range has none.  nan for K = 0, where no area does, and
    +-inf where it is past the float range; it never raises.
    """
    if not K:
        return math.nan
    try:
        chi_f, K_f = float(chi), float(K)
    except OverflowError:
        chi_f = K_f = 0.0
    if abs(K_f) >= 2.0**-1022 and (abs(chi_f) >= 2.0**-1022 or not chi):
        return 2.0 * math.pi * chi_f / K_f
    try:
        return 2.0 * math.pi * float(chi / K)
    except OverflowError:
        return math.inf if (chi > 0) == (K > 0) else -math.inf


def _default_area(chi: Fraction, K: Rational) -> float:
    """The forced area of a nonzero exact K, for metric data given without an area.

    Raises GaussBonnetViolation where chi K <= 0, decided exactly, since no
    area V > 0 then satisfies K V = 2 pi chi, and ValueError where the area
    is past the float range.
    """
    area = _forced_area(chi, K)
    if chi * K <= 0:
        raise GaussBonnetViolation(chi, K, area, area)
    if not 0.0 < area < math.inf:
        raise ValueError("the area 2 pi chi / K is outside the float range")
    return area


def full_expansion(sig: OrbifoldSignature, metric: MetricData) -> HeatExpansion:
    """All five leading coefficients for a constant-curvature structure.

    Raises ValueError when the metric's mirror data contradicts the
    signature (mirror length must be positive exactly when mirror
    boundaries exist), and GaussBonnetViolation when the metric breaks
    2 pi chi = K V.  A float K counts at its exact value.  The one rule:
    K = chi = 0 is consistent with every area; otherwise the area that
    Gauss-Bonnet forces, 2 pi chi / K, must be a finite positive float and
    V must lie within 1e-12 relative of it.  So K = 0 with chi != 0, and
    a K or chi of the wrong sign, decided exactly, break it at any V.

    Degree 1 uses the Gauss-Bonnet-exact form K*(chi/30 + singular sums),
    an exact Fraction at every K; it agrees with coefficient_one (the area
    form) within the enforced tolerance.
    """
    chi = euler_characteristic(sig)
    L = float(metric.mirror_length)
    if sig.has_mirrors and L <= 0:
        raise ValueError("signature has mirror boundaries but mirror_length is 0")
    if not sig.has_mirrors and L != 0:
        raise ValueError("mirror_length given for a signature without mirrors")

    K = Fraction(metric.curvature)
    area = float(metric.area)
    if K or chi:
        forced = _forced_area(chi, K)
        if not (
            0.0 < forced < math.inf
            and abs(area - forced) <= _REL_TOL_GAUSS_BONNET * max(area, forced)
        ):
            raise GaussBonnetViolation(chi, metric.curvature, forced, area)

    return HeatExpansion(
        {
            Fraction(-1): coefficient_minus_one(metric),
            Fraction(-1, 2): coefficient_minus_half(metric),
            Fraction(0): degree_zero_term(sig),
            Fraction(1, 2): coefficient_half(metric),
            Fraction(1): K * (chi / 30 + _singular_degree_one_sum(sig)),
        }
    )
