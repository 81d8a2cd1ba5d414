"""Direct numeric cosecant power sums over m-th roots of unity.

The two sums that feed cone and corner contributions to heat coefficients
have the closed forms

    sum_{j=1}^{m-1} csc^2(pi j / m) = (m^2 - 1) / 3
    sum_{j=1}^{m-1} csc^4(pi j / m) = (m^4 + 10 m^2 - 11) / 45

which heat.c_ratio and heat._singular_degree_one_sum use.
cosecant_sum_numeric is the independent floating-point route used to
cross-check them (direct term-by-term summation, no closed form involved).
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


def cosecant_sum_numeric(m: int, power: int) -> float:
    """Direct numeric sum_{j=1}^{m-1} csc^power(pi j / m) for power in {2, 4}.

    Terms are accumulated in index order with compensated summation
    (math.fsum).  The sine argument is folded to [0, pi/2] using the exact
    symmetry sin(pi j / m) = sin(pi (m - j) / m) so that terms near j = m-1
    do not lose accuracy to cancellation in pi - pi*j/m.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError(f"m must be an int, got {m!r}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if power not in (2, 4):
        raise DomainError(f"power must be 2 or 4, got {power}")
    terms = (
        math.sin(math.pi * min(j, m - j) / m) ** -power for j in range(1, m)
    )
    return math.fsum(terms)
