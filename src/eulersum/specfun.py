"""Integer-order polylogarithms on [-1, 1] and floating harmonic numbers.

Evaluation strategy for Li_s(x), s >= 2:

  * |x| <= 1/2          direct Taylor series (geometric convergence), and
                        all of (-1, 1) from s = 64 on, where |Li_s(x) - x| < 2^-63,
  * x in (1/2, 1)       expansion in powers of z = log x around x = 1,
  * x in (-1, -1/2)     square the argument: Li_s(x) = 2^(1-s) Li_s(x^2)
                        - Li_s(-x), which lands both calls in the branches
                        above,
  * x = 1, x = -1       zeta(s) and -(1 - 2^(1-s)) zeta(s).

The expansion around x = 1 is the workhorse: the integral representations
evaluate Li_s(1-t) with t approaching 0, where the raw series is uselessly
slow. It needs zeta at non-positive integers, which come from Bernoulli
numbers; its radius of convergence is |z| < 2 pi, so on (1/2, 1) each term
shrinks by better than a factor of 9.

Both series are fixed polynomials for each order s, their coefficients
computed once and evaluated by Horner's rule. The same kernels take a
float or a numpy array: polylog() works on one argument, polylog_array()
masks an array by branch and makes one kernel call per branch, and
polylog_one_minus() and dilog_neg_ratio() accept either form. The scalar
paths stay apart from the array ones: one point costs 4-8 us as a float
but 76-161 us as an array (dilog_neg_ratio on a 2-core Xeon), so the 5
scalar calls of a suite pass would add about 0.6 ms to its 4.1 ms.

polylog_one_minus(s, t) computes Li_s(1-t) directly from t, so callers
integrating toward t = 0 keep full accuracy even when 1-t is not
representable as a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import euler_gamma, zeta
from .exactmath import _check_integer, bernoulli

__all__ = [
    "PolylogEval",
    "polylog",
    "polylog_array",
    "polylog_eval",
    "polylog_one_minus",
    "dilog_neg_ratio",
    "harmonic_float",
    "POLYLOG_ABS_ERROR",
]

# Contractual accuracy of polylog on its whole domain; observed errors sit
# two orders of magnitude below this.
POLYLOG_ABS_ERROR = 1e-14

# Size below which a term of the expansion about x = 1 is dropped, and
# the largest |z| = |log x| that expansion serves.
_NEGLIGIBLE = 2.0**-62
_LOG2 = math.log(2.0)
_TAYLOR_ONLY_ORDER = 64


@dataclass(frozen=True)
class PolylogEval:
    """One polylogarithm evaluation with its guaranteed error bound."""

    order: int
    argument: float
    value: float
    abs_error_bound: float


def _zeta_nonpositive(j: int) -> Fraction:
    """zeta at an integer j <= 0 via Bernoulli numbers, exactly."""
    if j == 0:
        return Fraction(-1, 2)
    n = -j
    if n % 2 == 0:
        return Fraction(0)
    m = (n + 1) // 2
    return -bernoulli(2 * m) / Fraction(2 * m)


@lru_cache(maxsize=1024)
def _array_coeffs(coeffs: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """The same doubles as 0-d float64 arrays, which _horner only reads."""
    return tuple(map(np.array, coeffs))


def _horner(coeffs: tuple[float, ...], x):
    """Polynomial with coefficients listed from the highest power down.

    x may be a float or a numpy array; both see the same operations, so a
    scalar and an array evaluation differ only where numpy's elementary
    functions round differently from the math module's. An array
    accumulator is updated in place after its first step and adds the
    coefficients as 0-d float64 arrays built once per table, the same
    doubles, which numpy adds a third faster than Python floats.
    """
    if len(coeffs) == 1:
        return coeffs[0]
    if isinstance(x, np.ndarray):
        coeffs = _array_coeffs(coeffs)
    acc = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


@lru_cache(maxsize=1024)
def _taylor_coeffs(s: int) -> tuple[float, ...]:
    """1/k^s for k = K..1, with K the shortest series that serves |x| <= 1/2.

    The terms after k = K sum to less than 2 (1/2)^K / (K+1)^s times |x|,
    and |Li_s(x)| >= 7/8 |x| there for s >= 2, so K + s log2(K+1) >= 58
    keeps the truncation below 1e-17 relative.
    """
    k_max = 1
    while k_max + s * math.log2(k_max + 1) < 58.0:
        k_max += 1
    return tuple(1 / k**s for k in range(k_max, 0, -1))


def _taylor(s: int, x):
    """sum x^k / k^s for |x| <= 1/2 (at most 47 terms, at s = 2)."""
    return x * _horner(_taylor_coeffs(s), x)


@lru_cache(maxsize=1024)
def _log_expansion_coeffs(s: int) -> tuple[tuple[float, ...], float, float]:
    """Horner coefficients zeta(s-k)/k! (k != s-1), 1/(s-1)! and H_{s-1}.

    The expansion serves |z| < log 2. A coefficient is kept while its term
    can reach 2^-62 there: for k < s-1 the term is below
    zeta(2) (log 2)^k / k!, and once that bound is negligible so is every
    term with k >= s (they carry a further factor (log 2 / 2 pi)^(k-s)/s!);
    for small s the terms with k >= s are summed until two in a row are
    negligible, since every other one vanishes. 1/(s-1)! is a correctly
    rounded quotient of integers, which underflows to zero for large s
    instead of overflowing.
    """
    coeffs: list[float] = []
    small_run = 0
    k = 0
    while small_run < 2:
        if k < s - 1:
            if 2.0 * _LOG2**k / math.factorial(k) < _NEGLIGIBLE:
                break
            coeffs.append(zeta(s - k) / math.factorial(k))
        elif k == s - 1:
            coeffs.append(0.0)  # carried by the log term
        else:
            c = float(_zeta_nonpositive(s - k) / math.factorial(k))
            coeffs.append(c)
            small_run = small_run + 1 if abs(c) * _LOG2**k < _NEGLIGIBLE else 0
        k += 1
    harmonic = math.fsum(1.0 / j for j in range(1, s))
    return tuple(reversed(coeffs)), 1 / math.factorial(s - 1), harmonic


def _log_expansion(s: int, z, log):
    """Li_s(e^z) for z < 0, |z| < log 2, integer s >= 2.

    Li_s(e^z) = sum_{k >= 0, k != s-1} zeta(s-k) z^k / k!
                + z^(s-1)/(s-1)! * (H_{s-1} - log(-z))

    z may be a float or a numpy array, with log the matching math.log or
    np.log.
    """
    coeffs, inv_factorial, harmonic = _log_expansion_coeffs(s)
    return _horner(coeffs, z) + z ** (s - 1) * inv_factorial * (harmonic - log(-z))


def _polylog_open(s: int, x: float) -> float:
    """Li_s(x) for s >= 2 and -1 < x < 1."""
    if abs(x) <= 0.5 or s >= _TAYLOR_ONLY_ORDER:
        return _taylor(s, x)
    if x > 0.0:
        return _log_expansion(s, math.log(x), math.log)
    # x in (-1, -1/2): argument-squaring identity.
    return 2.0 ** (1 - s) * _polylog_open(s, x * x) - _log_expansion(
        s, math.log(-x), math.log
    )


def _polylog_open_array(s: int, x: np.ndarray) -> np.ndarray:
    """_polylog_open on an array: one kernel call per branch mask."""
    if s >= _TAYLOR_ONLY_ORDER:
        return _taylor(s, x)
    out = np.empty_like(x)
    taylor = np.abs(x) <= 0.5
    near_one = x > 0.5
    near_minus_one = x < -0.5
    if taylor.any():
        out[taylor] = _taylor(s, x[taylor])
    if near_one.any():
        out[near_one] = _log_expansion(s, np.log(x[near_one]), np.log)
    if near_minus_one.any():
        xn = x[near_minus_one]
        out[near_minus_one] = 2.0 ** (1 - s) * _polylog_open_array(
            s, xn * xn
        ) - _log_expansion(s, np.log(-xn), np.log)
    return out


def polylog(s: int, x: float) -> float:
    """Polylogarithm Li_s(x) = sum_{n>=1} x^n / n^s for s >= 0, x in [-1, 1].

    x = 1 requires s >= 2 (the series is zeta(s) there and diverges below).
    Closed forms are used for the two lowest orders: Li_0(x) = x/(1-x) and
    Li_1(x) = -log(1-x). Takes a scalar x; polylog_array evaluates whole
    arrays through the same kernels.
    """
    _check_integer("polylog", "order s", s, 0)
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"polylog argument must lie in [-1, 1], got {x}")
    if x == 1.0:
        if s < 2:
            raise ValueError(f"polylog(s={s}, x=1) diverges")
        return zeta(s)
    if s == 0:
        return x / (1.0 - x)
    if s == 1:
        return -math.log1p(-x)
    if x == -1.0:
        return -(1.0 - 2.0 ** (1 - s)) * zeta(s)
    return _polylog_open(s, x)


def polylog_array(s: int, x) -> np.ndarray:
    """polylog(s, x) elementwise over an array of arguments in [-1, 1].

    Each branch evaluates all of its arguments in one kernel call, so a
    grid of points costs a few numpy passes instead of a Python call per
    point. Values agree with polylog() to a few units in the last place.
    """
    _check_integer("polylog", "order s", s, 0)
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -1.0) & (x <= 1.0)):  # NaN fails too
        raise ValueError("polylog arguments must lie in [-1, 1]")
    if s < 2 and np.any(x == 1.0):
        raise ValueError(f"polylog(s={s}, x=1) diverges")
    if s == 0:
        return x / (1.0 - x)
    if s == 1:
        return -np.log1p(-x)
    out = np.where(x > 0.0, zeta(s), -(1.0 - 2.0 ** (1 - s)) * zeta(s))
    inside = np.abs(x) < 1.0
    out[inside] = _polylog_open_array(s, x[inside])
    return out


def polylog_eval(s: int, x: float) -> PolylogEval:
    """polylog() packaged with its contractual error bound."""
    return PolylogEval(order=s, argument=x, value=polylog(s, x),
                       abs_error_bound=POLYLOG_ABS_ERROR)


def polylog_one_minus(s: int, t):
    """Li_s(1 - t) for t in [0, 1], accurate uniformly in t.

    For t < 1/2 this goes straight into the x = 1 expansion with
    z = log1p(-t), so t = 1e-300 is as accurate as t = 0.3; for t >= 1/2
    the complement 1 - t is exact in floating point and lies in [0, 1/2],
    where the Taylor series serves it; from s = 64 on it serves every t.
    Li_0(1 - t) = (1 - t)/t overflows for t < 5.6e-309 (ValueError). A
    scalar t gives a float; an array of t gives an array, branch by branch.
    """
    _check_integer("polylog", "order s", s, 0)
    if np.ndim(t):
        return _polylog_one_minus_array(s, np.asarray(t, dtype=float))
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"polylog_one_minus requires t in [0, 1], got {t}")
    if t >= 0.5 or t == 0.0 or s >= _TAYLOR_ONLY_ORDER:
        return polylog(s, 1.0 - t)
    if s == 1:
        return -math.log(t)
    if s == 0:
        return _order_zero_one_minus(t)
    return _log_expansion(s, math.log1p(-t), math.log)


def _order_zero_one_minus(t):
    """Li_0(1 - t) = (1 - t)/t, past the largest double for t < 5.6e-309."""
    with np.errstate(over="ignore"):
        value = (1.0 - t) / t  # also x/(1-x) at x = 1 - t >= 0, exactly
    if np.any(np.isinf(value)):
        raise ValueError("polylog_one_minus(0, t) overflows for t < 5.6e-309")
    return value


def _polylog_one_minus_array(s: int, t: np.ndarray) -> np.ndarray:
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("polylog_one_minus requires t in [0, 1]")
    if s < 2 and np.any(t == 0.0):
        raise ValueError(f"polylog_one_minus({s}, 0) diverges")
    if s == 0:
        return _order_zero_one_minus(t)
    out = np.empty_like(t)
    far = (t >= 0.5) | (s >= _TAYLOR_ONLY_ORDER)
    x = 1.0 - t[far]  # exact for t >= 1/2, where x <= 1/2
    near = ~far
    tn = t[near]
    if s == 1:
        out[far] = -np.log1p(-x)
        out[near] = -np.log(tn)
        return out
    # Each polynomial costs a few dozen numpy calls, so skip empty branches.
    if x.size:
        out[far] = _taylor(s, x)
    if tn.size:
        values = np.full_like(tn, zeta(s))
        inside = tn > 0.0
        values[inside] = _log_expansion(s, np.log1p(-tn[inside]), np.log)
        out[near] = values
    return out


def dilog_neg_ratio(u):
    """Li_2(-(1-u)/u) for u in (0, 1], evaluated through the Landen form.

    The identity Li_2(-(1-u)/u) = -log(u)^2/2 - Li_2(1-u) trades an
    argument that runs off to -infinity as u -> 0 for quantities that stay
    tame on the whole interval; this function IS that right-hand side, so
    the identity itself is only testable against an independent Li_2 on
    the subdomain u >= 1/2 where -(1-u)/u lands back in [-1, 0]. Accepts a
    scalar or an array of u.
    """
    if np.ndim(u):
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0.0) & (u <= 1.0)):
            raise ValueError("dilog_neg_ratio requires u in (0, 1]")
        log_u = np.log(u)
    else:
        if not 0.0 < u <= 1.0:
            raise ValueError(f"dilog_neg_ratio requires u in (0, 1], got {u}")
        if u == 1.0:
            return 0.0
        log_u = math.log(u)
    return -0.5 * log_u * log_u - polylog_one_minus(2, u)


def harmonic_float(n: int) -> float:
    """Floating-point harmonic number H_n.

    Compensated summation up to n = 10^6; beyond that the asymptotic
    expansion log n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) is already
    accurate to well below a rounding error.
    """
    _check_integer("harmonic_float", "n", n, 1)
    if n <= 1_000_000:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    x = float(n)
    return (
        math.log(x)
        + euler_gamma()
        + 0.5 / x
        - 1.0 / (12.0 * x * x)
        + 1.0 / (120.0 * x**4)
    )
