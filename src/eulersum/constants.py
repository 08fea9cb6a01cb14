"""Zeta values, pi and the Euler-Mascheroni constant at certified accuracy.

zeta(s) for integer s >= 2 comes from the alternating (eta) series with
the classical Chebyshev/binomial-weight acceleration: about 50 weighted
terms replace the ~10^15 raw terms that s = 2 would need for 1e-15. The
accelerated sum is evaluated in exact rational arithmetic and rounded to
a double exactly once at the end, so the certified error is one rounding
step plus a provable truncation bound of order 1e-37. That serves the
table s <= S_MAX built at import; above it the plain series needs at most
eight terms and is summed in floats (see _zeta_float_direct).

The Euler constant is produced the same spirit: harmonic number minus
log with Bernoulli-weighted corrections, all in exact rationals (log 128
via a rational artanh series), rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from types import MappingProxyType
from typing import Mapping

from .exactmath import _check_integer, bernoulli, weighted_power_sum

__all__ = ["ZetaTable", "zeta", "zeta_table", "euler_gamma"]

# Largest index precomputed at import; above this the direct series
# already converges in at most eight terms and is summed in floats on demand.
S_MAX = 20

# Number of accelerated terms. Truncation error of the weighted eta sum
# is below 3 * (3 + sqrt(8))^(-n) / |1 - 2^(1-s)| < 4e-38 for n = 50.
_ACCEL_TERMS = 50

# One double rounding of a value in (1, 2), with generous headroom over
# the 1e-37 truncation term.
CERTIFIED_ABS_ERROR = 2.5e-16


@dataclass(frozen=True)
class ZetaTable:
    """Read-only map s -> zeta(s) for 2 <= s <= S_MAX with a uniform bound."""

    values: Mapping[int, float]
    certified_abs_error: float


def _chebyshev_weights(n: int) -> tuple[int, ...]:
    """The acceleration weights d_0..d_n, which do not depend on s.

    d_i = n sum_{j <= i} (n+j-1)! 4^j / ((n-j)! (2j)!) stems from Chebyshev
    polynomial coefficients; every summand n (n+j-1)! 4^j / ((n-j)! (2j)!)
    is an integer, so the weights are exact integers.
    """
    d: list[int] = []
    acc = 0
    for j in range(n + 1):
        acc += n * factorial(n + j - 1) * 4**j // (factorial(n - j) * factorial(2 * j))
        d.append(acc)
    return tuple(d)


_WEIGHTS = _chebyshev_weights(_ACCEL_TERMS)


def _zeta_fraction_accelerated(s: int) -> Fraction:
    """Accelerated eta-series value of zeta(s) as an exact rational.

    The weights are integers, so the whole evaluation stays rational and
    the only floating-point error is the final rounding by the caller.
    """
    d = _WEIGHTS
    n = len(d) - 1
    total = weighted_power_sum(
        ((d[n] - d[k]) if k % 2 == 0 else (d[k] - d[n]) for k in range(n)), s
    )
    # eta -> zeta: divide by 1 - 2^(1-s) = (2^(s-1) - 1) / 2^(s-1).
    eta_to_zeta = Fraction(2 ** (s - 1) - 1, 2 ** (s - 1))
    return total / (d[n] * eta_to_zeta)


def _zeta_float_direct(s: int) -> float:
    """zeta(s) for s > S_MAX as math.fsum of the float terms k^-s >= 2^-60.

    Each term is within one rounding of k^-s (at most 2^-53 k^-s), and fsum
    rounds their exact sum once (at most 1.2e-16 in [1, 2)). The dropped
    tail sum_{k > K} k^-s is below (K+1)^-s (1 + (K+1)/(s-1)) < 1.4 * 2^-60,
    since K + 1 <= 8 for s >= 21. Together that stays within
    CERTIFIED_ABS_ERROR, and s = 20000 costs two terms instead of an exact
    sum over lcm(1..40)^s.
    """
    terms = []
    k = 1
    term = 1.0
    while term >= 2.0**-60:
        terms.append(term)
        k += 1
        term = k ** -float(s)
    return math.fsum(terms)


_TABLE = ZetaTable(
    values=MappingProxyType(
        {s: float(_zeta_fraction_accelerated(s)) for s in range(2, S_MAX + 1)}
    ),
    certified_abs_error=CERTIFIED_ABS_ERROR,
)


def zeta_table() -> ZetaTable:
    """The table built at import time, shared and immutable."""
    return _TABLE


def zeta(s: int) -> float:
    """zeta(s) for integer s >= 2, within CERTIFIED_ABS_ERROR of the truth."""
    _check_integer("zeta", "s", s, 2)
    if s <= S_MAX:
        return _TABLE.values[s]
    # From s = 61 on the direct sum is its first term, 1.0: no float(s) needed.
    return _zeta_float_direct(s) if s <= 60 else 1.0


def _euler_gamma_fraction() -> Fraction:
    """Euler-Mascheroni constant as an exact rational approximation.

    gamma = H_N - log N - 1/(2N) + sum_k B_{2k} / (2k N^{2k}) at N = 128.
    log 128 = 7 log 2 with log 2 = 2 artanh(1/3) summed as a rational
    series; the rational approximation is within 2e-24 of gamma, far below
    the final double rounding.
    """
    n_cut = 128
    harmonic = sum((Fraction(1, k) for k in range(1, n_cut + 1)), Fraction(0))
    third = Fraction(1, 3)
    log2 = 2 * sum(third ** (2 * j + 1) / (2 * j + 1) for j in range(30))
    value = harmonic - 7 * log2 - Fraction(1, 2 * n_cut)
    for k in range(1, 8):
        value += bernoulli(2 * k) / (2 * k * Fraction(n_cut) ** (2 * k))
    return value


_EULER_GAMMA = float(_euler_gamma_fraction())


def euler_gamma() -> float:
    """The Euler-Mascheroni constant, computed (not hard-coded) at import."""
    return _EULER_GAMMA
