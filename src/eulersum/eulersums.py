"""Evaluation paths for the harmonic-number Euler sums.

The target quantities are S(m; q) = sum_{n>=1} H_n^m / n^q with m in
{1, 2} and q >= 2. Every sum the package verifies can be reached three
independent ways:

  * sum_series              direct summation to n = 200 plus an
                            Euler-Maclaurin tail built on the asymptotic
                            expansion of H_n,
  * sum_gp_closed_form      the finite zeta combination for odd exponents
                            S(1; 2p+1) = 1/2 sum_{j=2..2p} (-1)^j zeta(j)
                            zeta(2p - j + 2),
  * sum_via_integral        tanh-sinh quadrature of the representation
                            S(1; q) = -int_0^1 Li_{q-1}(1-t) log t/(1-t) dt,
                            with the polylog evaluated over each quadrature
                            pass's nodes as one array,

plus, for the squared-harmonic sums, a reduction of the double integral
representation to one dimension (quadratic_sum_q2_via_outer) and its 2-D
quadrature after splitting the square on its diagonal and setting u = t v
(Duffy, 1982; quadratic_sum_double_integral, Li_{q-2} from polylog_array).
The three routes above take the orders EulerSumSpec accepts and return 1.0
where the sum rounds to it; the quadrature routes the registry checks
return their QuadratureResult, so the caller sees the evaluation count and
decides on convergence.

sum_series sums n = 1..200 as one array expression over tables of H_n^m
and n, then math.fsum. _tail_sum sums the rest from an expansion of the
form sum c * log(x)^i * x^(-e), term by term: each term's tail is
(-d/ds)^i of the Hurwitz-zeta tail sum_{n>N} n^-s at s = q + e, whose
Euler-Maclaurin form is one polynomial in s (Johansson, Numer. Algorithms
69, 2015). Every table that does not depend on the sum being evaluated
(H_1..H_200, the expansions of H_x and H_x^2, and that polynomial with its
two derivatives) is built at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Callable

import numpy as np

from .constants import euler_gamma, zeta
from .exactmath import _check_integer, bernoulli
from .quad import QuadratureError, QuadratureResult, _check_tol, integrate, integrate2d
from .specfun import _horner, _real, dilog_neg_ratio, polylog_array, polylog_one_minus

__all__ = [
    "EulerSumSpec",
    "sum_series",
    "sum_gp_closed_form",
    "sum_via_integral",
    "integral_representation_integrand",
    "inner_integral",
    "inner_integral_quadrature",
    "quadratic_sum_q2_via_outer",
    "outer_integrand",
    "double_integral_kernel",
    "quadratic_sum_double_integral",
    "SERIES_CUTOFF",
    "MAX_Q",
]

SERIES_CUTOFF = 200
_MIN_SERIES_TOL = 1e-12

# From this q on, S(m; q) - 1 <= sum_{n>=2} n^(m-q) = zeta(q-m) - 1 < 2^-61
# for m <= 2 (H_n <= n), below half an ulp of 1, so the nearest double is
# 1.0. The summed terms would overflow in n**q from q = 134 at n = 200.
_Q_ROUNDS_TO_ONE = 64

# Largest accepted q. Every sum rounds to 1.0 long before it, so larger
# orders check nothing; beyond it an order is rejected as a domain error.
MAX_Q = 2**20


@dataclass(frozen=True)
class EulerSumSpec:
    """One Euler sum: sum_{n>=1} [H_n]^h_power / n^q.

    h_power is 1 or 2 (higher powers are out of scope) and q is an integer
    with 2 <= q <= MAX_Q (q >= 2 so the series converges).
    """

    h_power: int
    q: int

    def __post_init__(self) -> None:
        _check_integer("EulerSumSpec", "h_power", self.h_power, 1, 2)
        _check_integer("EulerSumSpec", "q", self.q, 2, MAX_Q)


def _hurwitz_tail_polynomials(n: int) -> tuple:
    """Horner tables of P, P' and P'' for the Hurwitz-zeta tail at n.

    Euler-Maclaurin through B_6 gives
        sum_{k>n} k^-s = n^-s (n/(s-1) + P(s)) + O(n^(-s-7)),
        P(s) = -1/2 + sum_{j=1..3} B_2j/(2j)! (s)_(2j-1) n^(1-2j),
    with (s)_k the rising factorial. P is built in exact fractions; its
    constant term is -1/2, since every (s)_k has the factor s.
    """
    coeffs = [0] * 6  # lowest power first
    for j in (1, 2, 3):
        weight = bernoulli(2 * j) / math.factorial(2 * j) / n ** (2 * j - 1)
        rising = [1]
        for k in range(2 * j - 1):  # times (s + k)
            rising = [k * a + b for a, b in zip(rising + [0], [0] + rising)]
        for d, a in enumerate(rising):
            coeffs[d] += weight * a
    coeffs[0] = -0.5
    tables = []
    for _ in range(3):
        tables.append(tuple(float(c) for c in reversed(coeffs)))
        coeffs = [d * c for d, c in enumerate(coeffs)][1:]
    return tuple(tables)


_TAIL_POLYNOMIALS = _hurwitz_tail_polynomials(SERIES_CUTOFF)
# Per item exponent i <= 2: C(i, l) log(N)^(i-l), N l!, l + 1, (-1)^l P^(l), l <= i.
_TAIL_TERMS = tuple(tuple((math.comb(i, l) * math.log(SERIES_CUTOFF) ** (i - l),
                           SERIES_CUTOFF * math.factorial(l), l + 1,
                           tuple(-c if l % 2 else c for c in _TAIL_POLYNOMIALS[l]))
                          for l in range(i + 1)) for i in range(3))


def _tail_sum(p, q: int) -> float:
    """sum_{n > SERIES_CUTOFF} of p(n) / n^q, p an expansion as ((i, e), c) items.

    With N = SERIES_CUTOFF and s = q + e, each item's tail is
    (-d/ds)^i of the Hurwitz-zeta tail N^-s (N/(s-1) + P(s)), by Leibniz
        c N^-s sum_{l<=i} C(i, l) log(N)^(i-l) (N l!/(s-1)^(l+1) + (-1)^l P^(l)(s)),
    whose factors free of s come from _TAIL_TERMS. Tests check it against
    mpmath's Hurwitz-zeta derivatives for q = 2..11.
    """
    total = 0.0
    for (i, e), c in p:
        s = float(q + e)
        val = 0.0
        for weight, n_factorial, power, table in _TAIL_TERMS[i]:
            val += weight * (n_factorial / (s - 1.0) ** power + _horner(table, s))
        total += c * float(SERIES_CUTOFF) ** -s * val
    return total


def _harmonic_power_expansions() -> MappingProxyType:
    """The items of H_x^m keyed by m in {1, 2}, from H_x ~ log x + gamma
    + 1/(2x) - 1/(12 x^2) + 1/(120 x^4); the square stops at x^-4 too."""
    h = (((1, 0), 1.0), ((0, 0), euler_gamma()), ((0, 1), 0.5),
         ((0, 2), -1.0 / 12.0), ((0, 4), 1.0 / 120.0))
    square: dict = {}
    for (i1, e1), c1 in h:
        for (i2, e2), c2 in h:
            key = (i1 + i2, e1 + e2)
            if key[1] <= 4:
                square[key] = square.get(key, 0.0) + c1 * c2
    return MappingProxyType({1: h, 2: tuple(square.items())})


_HARMONIC_EXPANSIONS = _harmonic_power_expansions()

# n = 1..200, and H_n as the correctly rounded sum of the doubles 1.0/k,
# math.fsum's value: for k <= 256 each is a multiple of 2^-60, so the
# prefix sums of the integers 2^60/k are exact.
_NS = tuple(float(n) for n in range(1, SERIES_CUTOFF + 1))
_HARMONICS = tuple(s / 2**60 for s in accumulate(int(2.0**60 / n) for n in _NS))
_HARMONIC_POWERS = {m: np.array([h**m for h in _HARMONICS]) for m in (1, 2)}
_N_ARRAY = np.array(_NS)


def sum_series(spec: EulerSumSpec, tol: float = 1e-10) -> float:
    """S(h_power; q) by direct summation with an Euler-Maclaurin tail.

    The partial sum runs to n = SERIES_CUTOFF = 200 as one array
    expression over tables of H_n^m and n built at import, then math.fsum,
    several times faster than 200 Python powers and divisions; numpy's n^q
    may round an ulp off the math module's above 2^53, far below the sum's
    last bit (a test pins the double for every q < 64). The tail sums the
    asymptotic form of H_n^m / n^q (for m = 2 the squared expansion is
    truncated consistently at order n^-4 inside the square; the first
    dropped term, 1/(120 n^5), sums to about 2e-17 beyond n = 200). The
    achieved accuracy is near 1e-15 for every in-scope sum, validated
    against the closed forms; tolerances below 1e-12 are not accepted.
    From q = 64 on the sum rounds to 1.0, which is returned directly.
    """
    if not isinstance(spec, EulerSumSpec):
        raise ValueError(f"sum_series requires an EulerSumSpec, got {spec!r}")
    _check_tol("sum_series", tol, _MIN_SERIES_TOL)
    m, q = spec.h_power, spec.q
    if q >= _Q_ROUNDS_TO_ONE:
        return 1.0
    partial = math.fsum((_HARMONIC_POWERS[m] / _N_ARRAY**q).tolist())
    return partial + _tail_sum(_HARMONIC_EXPANSIONS[m], q)


def sum_gp_closed_form(p: int) -> float:
    """S(1; 2p+1) as the finite zeta combination, exactly as written:

        1/2 sum_{j=2}^{2p} (-1)^j zeta(j) zeta(2p - j + 2)

    p = 1 collapses to zeta(2)^2 / 2. q = 2p+1 takes the domain of
    EulerSumSpec: q above MAX_Q is a ValueError, and from q = 64 on the sum
    rounds to 1.0, which is returned directly.
    """
    _check_integer("sum_gp_closed_form", "p", p, 1, (MAX_Q - 1) // 2)
    if 2 * p + 1 >= _Q_ROUNDS_TO_ONE:
        return 1.0
    total = math.fsum(
        (-1.0) ** j * zeta(j) * zeta(2 * p - j + 2) for j in range(2, 2 * p + 1)
    )
    return 0.5 * total


def integral_representation_integrand(q: int) -> Callable[[float], float]:
    """The integrand of S(1; q) = int_0^1 of  -Li_{q-1}(1-t) log t / (1-t).

    Built on polylog_one_minus so the singular corner t -> 0 (argument of
    the polylogarithm -> 1) keeps full accuracy. Takes a scalar or an array
    of t.
    """
    _check_integer("integral representation", "q", q, 2)

    def f(t):
        return -polylog_one_minus(q - 1, t) * np.log(t) / (1.0 - t)

    return f


def sum_via_integral(q: int, tol: float = 1e-10) -> float:
    """S(1; q) by tanh-sinh quadrature on the integral representation.

    q takes the domain of EulerSumSpec, and from q = 64 on the sum rounds
    to 1.0, which is returned directly. tol takes sum_series' floor, 1e-12,
    at every q. Raises QuadratureError when the quadrature does not converge.
    """
    _check_integer("sum_via_integral", "q", q, 2, MAX_Q)
    _check_tol("sum_via_integral", tol, _MIN_SERIES_TOL)
    if q >= _Q_ROUNDS_TO_ONE:
        return 1.0
    result = integrate(integral_representation_integrand(q), tol)
    if not result.converged:
        message = f"integral representation of S(1; {q}) did not converge"
        raise QuadratureError(f"{message}: {result.message}", result)
    return result.value


def inner_integral(u: float) -> float:
    """Closed form of int_0^1 log t / (1 - (1-t)(1-u)) dt for u in (0, 1).

    Equals Li_2(-(1-u)/u) / (1-u); the quadrature route lives in
    inner_integral_quadrature so the two stay comparable.
    """
    u = _real("inner_integral", "u", u, lambda u: (0.0 < u) & (u < 1.0), "(0, 1)")
    return dilog_neg_ratio(u) / (1.0 - u)


def inner_integral_quadrature(u: float) -> QuadratureResult:
    """Quadrature of the inner integral to tol 1e-11, to check the closed form."""
    u = _real("inner_integral_quadrature", "u", u,
              lambda u: (0.0 < u) & (u < 1.0), "(0, 1)")
    if type(u) is not float:  # one quadrature per u
        raise ValueError(f"inner_integral_quadrature requires one u, got shape {u.shape}")

    def f(t):
        # 1 - (1-t)(1-u) expanded as t + u - t u: no cancellation for small t, u.
        return np.log(t) / (t + u - t * u)

    return integrate(f, 1e-11)


def outer_integrand(u):
    """Integrand of the reduced 1-D form of S(2; 2): log u/(1-u) Li_2(-(1-u)/u).

    Takes a scalar or an array of u in (0, 1).
    """
    u = _real("outer_integrand", "u", u, lambda u: (0.0 < u) & (u < 1.0), "(0, 1)")
    return np.log(u) / (1.0 - u) * dilog_neg_ratio(u)


def quadratic_sum_q2_via_outer() -> QuadratureResult:
    """S(2; 2) as the single integral int_0^1 log u/(1-u) Li_2(-(1-u)/u) du.

    The dilogarithm factor is evaluated through its stable form, which is
    what makes the u -> 0 corner (where the raw argument diverges)
    integrable numerically; the value is 17/4 zeta(4), to tol 1e-10.
    """
    return integrate(outer_integrand, 1e-10)


def double_integral_kernel(q: int) -> Callable:
    """Kernel of S(2; q), 2 <= q <= 11, on the unit square after u = t v.

    The paper's int int Li_{q-2}(w)/w log t log u dt du, w = (1-t)(1-u), is
    symmetric in (t, u): twice the integral over u < t, which u = t v maps
    onto the square with a jacobian t that cancels the singular corner
    t = u = 0 (Duffy, 1982). So S(2; q) = int int kernel(t, v) dt dv with

        kernel(t, v) = 2 t Li_{q-2}(w)/w log t (log t + log v),

    w = (1-t)(1-t v) and 1 - w = t (1 + v (1-t)), both free of
    cancellation. q = 2 is 2 log t (log t + log v) / (1 + v (1-t)), q = 3
    uses Li_1(w) = -log(1 - w) and q >= 4 takes Li_{q-2}(w) from
    polylog_array. t (integrate2d's inner variable) and v are numpy arrays
    that broadcast to one shape.
    """
    _check_integer("double integral kernel", "q", q, 2, 11)

    def kernel(t, v):
        log_t = np.log(t)
        logs = 2.0 * log_t * (log_t + np.log(v))
        if q == 2:
            return logs / (1.0 + v * (1.0 - t))
        w = (1.0 - t) * (1.0 - t * v)
        if q == 3:
            return -t * np.log(t * (1.0 + v * (1.0 - t))) * logs / w
        return t * polylog_array(q - 2, w) / w * logs

    return kernel


def quadratic_sum_double_integral(q: int) -> QuadratureResult:
    """S(2; q), 2 <= q <= 11, by 2-D quadrature of double_integral_kernel
    to tol 1e-8. For q = 3 the registry asserts no closed form; the series
    is its only reference."""
    return integrate2d(double_integral_kernel(q), 1e-8)
