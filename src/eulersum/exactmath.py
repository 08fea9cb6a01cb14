"""Exact integer and rational building blocks for the identity checks.

Everything here is arithmetic over arbitrary-precision integers and
fractions; nothing rounds. The exact paths exist so that the finite
identities (the alternating binomial sum against its moment-expansion
form, Bernoulli recurrences, harmonic differences) can be tested by
structural equality instead of tolerances.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable

# Exact rational type used across the package. fractions.Fraction already
# maintains the canonical form the equality checks rely on: fully reduced
# terms and a strictly positive denominator after every operation.
Rational = Fraction

__all__ = [
    "Rational",
    "binomial",
    "harmonic_exact",
    "alt_binomial_sum",
    "moment_integral_exact",
    "bernoulli",
    "weighted_power_sum",
]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires n >= 0 and k >= 0, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got ({n}, {k})")
    return comb(n, k)


def weighted_power_sum(weights: Iterable[int], p: int) -> Rational:
    """sum_{k=1..n} w_k / k^p exactly, for integer weights w_1..w_n.

    Every term is an integer over the common denominator lcm(1..n)^p, so
    the sum is one integer numerator and a single reduction at the end
    instead of a gcd per term.
    """
    weights = list(weights)
    denominator = lcm(*range(1, len(weights) + 1))
    shares = [denominator // k for k in range(1, len(weights) + 1)]
    if p != 1:
        shares = [m**p for m in shares]
        denominator **= p
    numerator = sum([w * m for w, m in zip(weights, shares)])
    return Fraction(numerator, denominator)


def _signed_binomials(n: int) -> list[int]:
    """(-1)^k C(n, k) for k = 0..n, by the running ratio C(n, k) / C(n, k-1)."""
    row = [1]
    c = 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        row.append(-c if k % 2 else c)
    return row


def harmonic_exact(n: int, r: int = 1) -> Rational:
    """Generalised harmonic number sum_{k=1..n} 1/k^r as an exact fraction."""
    if n < 1:
        raise ValueError(f"harmonic_exact requires n >= 1, got {n}")
    if r < 1:
        raise ValueError(f"harmonic_exact requires r >= 1, got {r}")
    return weighted_power_sum([1] * n, r)


def alt_binomial_sum(n: int, p: int) -> Rational:
    """Alternating binomial sum  sum_{k=1..n} C(n, k) (-1)^k / k^p, exactly.

    For p = 1 the sum telescopes to -H_n, the negated harmonic number.
    """
    if n < 1:
        raise ValueError(f"alt_binomial_sum requires n >= 1, got {n}")
    if p < 1:
        raise ValueError(f"alt_binomial_sum requires p >= 1, got {p}")
    return weighted_power_sum(_signed_binomials(n)[1:], p)


def moment_integral_exact(n: int, p: int) -> Rational:
    """Exact value of (-1)^(p+1) * n * integral_0^1 (1-t)^(n-1) log(t)^p dt.

    Computed by expanding (1-t)^(n-1) binomially and using the monomial
    moments integral_0^1 t^j log(t)^p dt = (-1)^p p! / (j+1)^(p+1).
    This route never touches the alternating-sum form, so the two can be
    compared as independent evaluations of the same quantity:

        moment_integral_exact(n, p) == p! * alt_binomial_sum(n, p)
    """
    if n < 1:
        raise ValueError(f"moment_integral_exact requires n >= 1, got {n}")
    if p < 1:
        raise ValueError(f"moment_integral_exact requires p >= 1, got {p}")
    # (-1)^(p+1) * n * sum_j C(n-1, j) (-1)^j (-1)^p p!/(j+1)^(p+1)
    # collapses to -n * p! * sum_j C(n-1, j) (-1)^j / (j+1)^(p+1).
    total = weighted_power_sum(_signed_binomials(n - 1), p + 1)
    return -n * factorial(p) * total


# Bernoulli numbers by the defining recurrence
#     sum_{k=0..m} C(m+1, k) B_k = 0        (with B_1 = -1/2)
# memoised as a contiguous list so concurrent extension stays consistent.
_BERNOULLI_LOCK = threading.Lock()
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _extend_bernoulli(m: int) -> None:
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= m:
            idx = len(_BERNOULLI)
            acc = sum(
                Fraction(comb(idx + 1, k)) * _BERNOULLI[k] for k in range(idx)
            )
            _BERNOULLI.append(-acc / (idx + 1))


def bernoulli(m: int) -> Rational:
    """Bernoulli number B_m for even m >= 0, exactly.

    Odd indices are rejected: B_1 is a convention question and B_m = 0 for
    odd m >= 3, so nothing downstream ever asks for them.
    """
    if m < 0:
        raise ValueError(f"bernoulli requires m >= 0, got {m}")
    if m % 2:
        raise ValueError(f"bernoulli is only defined here for even m, got {m}")
    if m >= len(_BERNOULLI):
        _extend_bernoulli(m)
    return _BERNOULLI[m]


# Populate the table through index 30 up front; everything the package
# needs at runtime sits below that, and import-time construction keeps the
# common path lock-free.
_extend_bernoulli(30)
