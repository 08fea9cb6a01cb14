"""Exact integer and rational building blocks for the identity checks.

Everything here is arithmetic over arbitrary-precision integers and
fractions; nothing rounds. The exact paths exist so that the finite
identities (the alternating binomial sum against its moment-expansion
form, Bernoulli recurrences, harmonic differences) can be tested by
structural equality instead of tolerances. The three finite sums return
an integer pair (numerator, denominator): their dot product over the
common denominator lcm(1..n)^p, positive and unreduced, so two sums
compare by cross-multiplication and nothing reduces unless a value is
printed. Bernoulli numbers and the zeta table's weighted sums are reduced
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Iterable

__all__ = [
    "binomial",
    "harmonic_exact",
    "alt_binomial_sum",
    "moment_integral_exact",
    "bernoulli",
    "weighted_power_sum",
]


def _check_integer(
    owner: str, name: str, value: int, lo: int, hi: int | None = None
) -> None:
    """The package's one rule for integer arguments: raise ValueError unless
    value is an int (a bool is not) with lo <= value, and value <= hi when
    hi is given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{owner} requires an integer {name}, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        rule = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"{owner} requires {rule}, got {value}")


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n."""
    _check_integer("binomial", "n", n, 0)
    _check_integer("binomial", "k", k, 0, n)
    return comb(n, k)


# Ceilings checked before any big-integer work, so no argument can hang a
# call: the share table of n terms at exponent p holds about 1.5 n^2 p
# bits (below), some 15 MB and 1 s at n = 2000 and p = 21, the largest a
# sum reaches. The package itself asks for n <= 60 and p <= 20 (the zeta
# table), and for Bernoulli numbers up to B_20; B_200 costs 0.07 s.
_MAX_N = 2000
_MAX_EXPONENT = 20
_MAX_BERNOULLI = 200

# The memos below hold tables that do not depend on the identity being
# checked. Each is bounded in bytes for any input, not only in entries:
# C(n, k) < 2^n, so a memoised row holds at most 64 * 65 bits; and
# log2 lcm(1..n) < 1.5 n (Rosser and Schoenfeld: psi(x) < 1.03883 x), so a
# memoised share table (n^2 p <= 2^14) holds at most 1.5 * 2^14 bits, and
# 128 of them stay under 1 MB with the integer and tuple headers. Larger
# tables are built per call and dropped.
_MEMO_ROW_MAX_N = 64
_MEMO_SHARE_BITS = 1 << 14
_MEMO_SHARE_TABLES = 128


def _build_share_table(n: int, p: int) -> tuple[tuple[int, ...], int]:
    denominator = lcm(*range(1, n + 1))
    shares = tuple(denominator // k for k in range(1, n + 1))
    if p != 1:
        shares = tuple(m**p for m in shares)
        denominator **= p
    return shares, denominator


_share_table_memo = lru_cache(maxsize=_MEMO_SHARE_TABLES)(_build_share_table)


def _share_table(n: int, p: int) -> tuple[tuple[int, ...], int]:
    """lcm(1..n)^p / k^p for k = 1..n, and lcm(1..n)^p.

    Every term w_k / k^p is an integer share over the common denominator
    lcm(1..n)^p, so a sum over k is one integer dot product and a single
    reduction at the end instead of a gcd per term.
    """
    if 0 < p and n * n * p <= _MEMO_SHARE_BITS:
        return _share_table_memo(n, p)
    return _build_share_table(n, p)


def weighted_power_sum(weights: Iterable[int], p: int) -> Fraction:
    """sum_{k=1..n} w_k / k^p exactly, for integer weights w_1..w_n and p >= 0."""
    _check_integer("weighted_power_sum", "exponent", p, 0, _MAX_EXPONENT)
    weights = tuple(weights)
    shares, denominator = _share_table(len(weights), p)
    return Fraction(sum(map(mul, weights, shares)), denominator)


def _build_signed_binomials(n: int) -> tuple[int, ...]:
    row = [1]
    c = 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        row.append(-c if k % 2 else c)
    return tuple(row)


_signed_binomials_memo = lru_cache(maxsize=None)(_build_signed_binomials)


def _signed_binomials(n: int) -> tuple[int, ...]:
    """(-1)^k C(n, k) for k = 0..n, by the running ratio C(n, k) / C(n, k-1)."""
    if n <= _MEMO_ROW_MAX_N:
        return _signed_binomials_memo(n)
    return _build_signed_binomials(n)


def harmonic_exact(n: int, r: int = 1) -> tuple[int, int]:
    """Generalised harmonic number sum_{k=1..n} 1/k^r, exactly, as the
    unreduced pair (numerator, lcm(1..n)^r)."""
    _check_integer("harmonic_exact", "n", n, 1, _MAX_N)
    _check_integer("harmonic_exact", "exponent", r, 1, _MAX_EXPONENT)
    shares, denominator = _share_table(n, r)
    return sum(shares), denominator


def alt_binomial_sum(n: int, p: int) -> tuple[int, int]:
    """Alternating binomial sum  sum_{k=1..n} C(n, k) (-1)^k / k^p, exactly,
    as the unreduced pair (numerator, lcm(1..n)^p).

    For p = 1 the sum telescopes to -H_n, the negated harmonic number.
    """
    _check_integer("alt_binomial_sum", "n", n, 1, _MAX_N)
    _check_integer("alt_binomial_sum", "exponent", p, 1, _MAX_EXPONENT)
    shares, denominator = _share_table(n, p)
    return sum(map(mul, _signed_binomials(n)[1:], shares)), denominator


def moment_integral_exact(n: int, p: int) -> tuple[int, int]:
    """Exact value of (-1)^(p+1) * n * integral_0^1 (1-t)^(n-1) log(t)^p dt,
    as the unreduced pair (numerator, lcm(1..n)^(p+1)).

    Computed by expanding (1-t)^(n-1) binomially and using the monomial
    moments integral_0^1 t^j log(t)^p dt = (-1)^p p! / (j+1)^(p+1).
    This route never touches the alternating-sum form, so the two can be
    compared as independent evaluations of the same quantity, equal as
    values though not as pairs:

        moment_integral_exact(n, p) = p! * alt_binomial_sum(n, p)
    """
    _check_integer("moment_integral_exact", "n", n, 1, _MAX_N)
    _check_integer("moment_integral_exact", "exponent", p, 1, _MAX_EXPONENT)
    # (-1)^(p+1) * n * sum_j C(n-1, j) (-1)^j (-1)^p p!/(j+1)^(p+1)
    # collapses to -n * p! * sum_j C(n-1, j) (-1)^j / (j+1)^(p+1).
    shares, denominator = _share_table(n, p + 1)
    numerator = sum(map(mul, _signed_binomials(n - 1), shares))
    return -n * factorial(p) * numerator, denominator


# Bernoulli numbers by the defining recurrence
#     sum_{k=0..m} C(m+1, k) B_k = 0        (with B_1 = -1/2)
# memoised as a contiguous list. The table grows on demand: import needs
# B_2..B_14 (for euler_gamma), the polylog expansions ask for more as
# their orders require.
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _extend_bernoulli(m: int) -> None:
    while len(_BERNOULLI) <= m:
        idx = len(_BERNOULLI)
        acc = sum(Fraction(comb(idx + 1, k)) * _BERNOULLI[k] for k in range(idx))
        _BERNOULLI.append(-acc / (idx + 1))


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for even m, 0 <= m <= 200, exactly.

    Odd indices are rejected: B_1 is a convention question and B_m = 0 for
    odd m >= 3, so nothing downstream ever asks for them.
    """
    _check_integer("bernoulli", "m", m, 0, _MAX_BERNOULLI)
    if m % 2:
        raise ValueError(f"bernoulli is only defined here for even m, got {m}")
    if m >= len(_BERNOULLI):
        _extend_bernoulli(m)
    return _BERNOULLI[m]
