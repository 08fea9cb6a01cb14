"""Integer-order polylogarithms on [-1, 1] and floating harmonic numbers.

Evaluation strategy for Li_s(x), s >= 3:

  * |x| <= 1/2          direct Taylor series (geometric convergence, at
                        most 42 terms), and all of [-1, 1] from s = 64 on,
                        where |Li_s(x) - x| < 2^-63,
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

Li_2 keeps the same split with its own two kernels: on |x| <= 1/2 the
Bernoulli series in u = -log(1-x), which shrinks like (u/2 pi)^2 per term
and needs 9 of them ('t Hooft & Veltman, Nucl. Phys. B153, 1979; Crandall,
"Note on fast polylogarithm computation", 2006), and on (1/2, 1) the
reflection Li_2(x) = zeta(2) - log x log(1-x) - Li_2(1-x), where 1 - x is
exact.

Every series is a fixed polynomial for each order s, its coefficients
computed once and evaluated by Horner's rule. Each entry point writes its
branch split once, for a float and an array alike (_piecewise): a float
goes to one kernel, an array calls each kernel once on its own points.
The arithmetic stays apart: a float runs on Python floats and the math
module, an array on numpy, since one point costs 3-6 us as a float but
36-42 us as a one-element array (dilog_neg_ratio, timeit minimum on a
2-core Xeon), and a suite pass makes 5 such float calls.

polylog_one_minus(s, t) computes Li_s(1-t) directly from t, so callers
integrating toward t = 0 keep full accuracy even when 1-t is not
representable as a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

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

# The least t whose Li_0(1 - t) = (1 - t)/t is finite: 1/t overflows at 2^-1024.
_LI0_MIN_T = math.nextafter(2.0**-1024, 1.0)


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
    """sum x^k / k^s for |x| <= 1/2 (at most 42 terms, at s = 3)."""
    return x * _horner(_taylor_coeffs(s), x)


@lru_cache(maxsize=1)
def _dilog_coeffs() -> tuple[float, ...]:
    """B_2k/(2k+1)! for k = K..1, the shortest series serving |u| <= log 2.

    A term B_2k u^(2k+1)/(2k+1)! is kept while it can reach 2^-62 there;
    the terms shrink like (u/2 pi)^2k, so K = 9.
    """
    coeffs: list[float] = []
    k = 1
    while True:
        c = bernoulli(2 * k) / math.factorial(2 * k + 1)
        if abs(c) * _LOG2 ** (2 * k + 1) < _NEGLIGIBLE:
            return tuple(reversed(coeffs))
        coeffs.append(float(c))
        k += 1


def _dilog(u):
    """Li_2(x), |x| <= 1/2, by the Bernoulli series in u = -log(1-x), given u.

    sum_n B_n u^(n+1)/(n+1)! = u + w (-1/4 + u P(w)) with w = u^2, where
    P holds B_2k/(2k+1)! and |u| <= log 2; the reflection reuses its u.
    """
    w = u * u
    return u + w * (-0.25 + u * _horner(_dilog_coeffs(), w))


def _dilog_one_minus(t):
    """Li_2(1 - t) for 0 < t < 1/2: zeta(2) + u log t - Li_2(t), u = -log(1-t)."""
    u = -_lib(t).log1p(-t)
    return zeta(2) + u * _lib(t).log(t) - _dilog(u)


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


def _lib(x):
    """The math module for a float, numpy for an array; both have log and log1p."""
    return np if isinstance(x, np.ndarray) else math


def _piecewise(x, pieces):
    """Evaluate x piecewise by (condition, kernel) pairs, disjoint and covering x.

    A float goes to the kernel whose condition holds; an array calls each
    kernel once, on its points, and skips a piece with none: a kernel costs
    a few dozen numpy calls however few points it gets.
    """
    if not isinstance(x, np.ndarray):
        for condition, kernel in pieces:
            if condition:
                return kernel(x)
    out = np.empty_like(x)
    for condition, kernel in pieces:
        part = x[condition]
        if part.size:
            out[condition] = kernel(part)
    return out


def _log_expansion(s: int, z):
    """Li_s(e^z) for z < 0, |z| < log 2, integer s >= 2.

    Li_s(e^z) = sum_{k >= 0, k != s-1} zeta(s-k) z^k / k!
                + z^(s-1)/(s-1)! * (H_{s-1} - log(-z))

    z may be a float or a numpy array, and log is math.log or np.log to match.
    """
    coeffs, inv_factorial, harmonic = _log_expansion_coeffs(s)
    log = _lib(z).log
    return _horner(coeffs, z) + z ** (s - 1) * inv_factorial * (harmonic - log(-z))


def _polylog(s: int, x):
    """Li_s(x) for s >= 0 and x in [-1, 1] (x = 1 needs s >= 2), either form."""
    if s == 0:
        return x / (1.0 - x)
    if s == 1:
        return -_lib(x).log1p(-x)
    if s >= _TAYLOR_ONLY_ORDER:
        return _taylor(s, x)
    if s == 2:
        # 1 - x is exact for x in (1/2, 1).
        near_zero, near_one = (lambda x: _dilog(_polylog(1, x)),
                               lambda x: _dilog_one_minus(1.0 - x))
    else:
        near_zero, near_one = (partial(_taylor, s),
                               lambda x: _log_expansion(s, _lib(x).log(x)))
    return _piecewise(x, (
        (abs(x) <= 0.5, near_zero),
        ((0.5 < x) & (x < 1.0), near_one),
        # x in (-1, -1/2): argument-squaring identity.
        ((-1.0 < x) & (x < -0.5), lambda x: 2.0 ** (1 - s) * _polylog(s, x * x)
                                            - near_one(-x)),
        (x == 1.0, lambda x: zeta(s)),
        (x == -1.0, lambda x: -(1.0 - 2.0 ** (1 - s)) * zeta(s)),
    ))


def _real(name: str, var: str, x, inside, domain: str):
    """The one reading of a real argument for every Li_s entry point: a
    float as it is (no numpy call), a numpy scalar or 0-d array as a float,
    anything with dimensions as a float array. Any dtype but bool, int and
    float, and a point where inside(x) fails (NaN too; a Python int is
    tested as it is, at any size, alone or in a list), raise ValueError."""
    if type(x) is int and not inside(x):  # numpy's ints stop at 64 bits
        raise ValueError(f"{name} requires {var} in {domain}, got {x}")
    if type(x) is not float:
        a = np.asarray(x)
        if a.dtype.kind == "O" and all(isinstance(v, (int, float)) for v in a.flat):
            for v in a.flat:  # Python numbers, ints beyond 64 bits among them
                _real(name, var, v, inside, domain)
            a = a.astype(float)
        if a.dtype.kind not in "biuf":
            raise ValueError(f"{name} requires real {var}, got {a.dtype}")
        x = a.astype(float, copy=False) if a.ndim else float(a)
    ok = inside(x)
    if ok if type(x) is float else ok.all():
        return x
    bad = x if type(x) is float else x[~ok][0]
    raise ValueError(f"{name} requires {var} in {domain}, got {bad}")


def _any(hits):
    """Whether a float's comparison holds, or an array's does anywhere."""
    return hits if isinstance(hits, bool) else hits.any()


def _checked_polylog(name: str, s: int, x):
    """polylog and polylog_array: their checks, under the caller's name."""
    _check_integer(name, "order s", s, 0)
    x = _real(name, "x", x, lambda x: (-1.0 <= x) & (x <= 1.0), "[-1, 1]")
    if s < 2 and _any(x == 1.0):
        raise ValueError(f"{name}(s={s}, x=1) diverges")
    return _polylog(s, x)


def polylog(s: int, x):
    """Polylogarithm Li_s(x) = sum_{n>=1} x^n / n^s for s >= 0, x in [-1, 1].

    x = 1 requires s >= 2 (the series is zeta(s) there and diverges below).
    Closed forms are used for the two lowest orders: Li_0(x) = x/(1-x) and
    Li_1(x) = -log(1-x). A scalar x gives a float and an array of x an
    array, through the same split.
    """
    return _checked_polylog("polylog", s, x)


def polylog_array(s: int, x) -> np.ndarray:
    """polylog(s, x) as an array, 0-d for a scalar x.

    Each branch evaluates all of its arguments in one kernel call, so a
    grid costs a few numpy passes instead of a Python call per point, and
    agrees with a float polylog() to a few units in the last place.
    """
    return np.asarray(_checked_polylog("polylog_array", s, x))


def polylog_eval(s: int, x: float) -> PolylogEval:
    """polylog() packaged with its contractual error bound."""
    return PolylogEval(order=s, argument=x, value=polylog(s, x),
                       abs_error_bound=POLYLOG_ABS_ERROR)


def polylog_one_minus(s: int, t):
    """Li_s(1 - t) for t in [0, 1], accurate uniformly in t.

    For 0 < t < 1/2 this goes straight into the x = 1 expansion with
    z = log1p(-t) (at s = 2, the reflection of Li_2(t)), so t = 1e-300 is
    as accurate as t = 0.3; for t >= 1/2 the complement 1 - t is exact in
    floating point and lies in [0, 1/2], where the Taylor series (at s = 2,
    the Bernoulli series) serves it; from s = 64 on Taylor serves every t;
    t = 0 is zeta(s). Order 1 is -log(t), as -log1p(-x) at x = 1 - t for
    t >= 1/2; order 0 is (1 - t)/t, which overflows for t < 5.6e-309
    (ValueError). A scalar t gives a float and an array of t an array,
    through the same split.
    """
    _check_integer("polylog_one_minus", "order s", s, 0)
    t = _real("polylog_one_minus", "t", t, lambda t: (0.0 <= t) & (t <= 1.0), "[0, 1]")
    if s < 2 and _any(t == 0.0):
        raise ValueError(f"polylog_one_minus({s}, 0) diverges")
    if s == 0:
        if _any(t < _LI0_MIN_T):
            raise ValueError("polylog_one_minus(0, t) overflows for t < 5.6e-309")
        return (1.0 - t) / t  # also x/(1-x) at x = 1 - t >= 0, exactly
    if s >= _TAYLOR_ONLY_ORDER:
        return _taylor(s, 1.0 - t)
    lib = _lib(t)
    if s == 1:
        at_x, near_one = partial(_polylog, 1), lambda t: -lib.log(t)
    elif s == 2:
        at_x, near_one = lambda x: _dilog(_polylog(1, x)), _dilog_one_minus
    else:
        at_x, near_one = partial(_taylor, s), lambda t: _log_expansion(s, lib.log1p(-t))
    return _piecewise(t, (
        (t >= 0.5, lambda t: at_x(1.0 - t)),  # 1 - t is exact, in [0, 1/2]
        ((0.0 < t) & (t < 0.5), near_one),
        (t == 0.0, lambda t: zeta(s)),
    ))


def dilog_neg_ratio(u):
    """Li_2(-(1-u)/u) for u in (0, 1], evaluated through the Landen form.

    The identity Li_2(-(1-u)/u) = -log(u)^2/2 - Li_2(1-u) trades an
    argument that runs off to -infinity as u -> 0 for quantities that stay
    tame on the whole interval; this function IS that right-hand side, so
    the identity itself is only testable against an independent Li_2 on
    the subdomain u >= 1/2 where -(1-u)/u lands back in [-1, 0]. Accepts a
    scalar or an array of u, through the same body; u = 1 gives -0.0.
    """
    u = _real("dilog_neg_ratio", "u", u, lambda u: (0.0 < u) & (u <= 1.0), "(0, 1]")
    log_u = _lib(u).log(u)
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
