"""Hypothesis properties of zeta, polylog, polylog_one_minus, the Euler-sum
routes, integrate and the CLI's eval subcommands.

Over each function's accepted domain (and just outside it), every call
either returns a finite value within its bound or raises ValueError, and
takes under a second, for orders up to 10^12. A value at an order
s <= 200 is checked against mpmath at 30 digits; above that, Li_s(x) is
within 2^(1-s) of x and zeta(s) within 2^(1-s) of 1, far below a rounding
error. The Euler sums S(m; q) are checked against closed forms in mpmath
at 30 digits (or a 30-digit partial sum with a bounded tail), integrals
against their antiderivatives in mpmath, and every integrate result,
converged or failed, counts exactly the points its integrand was called
on. `eulersum eval` prints the package function's value and exits 0 on
an accepted request, and otherwise exits 2 with a one-line message.
"""

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eulersum.cli import main
from eulersum.constants import CERTIFIED_ABS_ERROR, zeta
from eulersum.eulersums import (
    MAX_Q,
    EulerSumSpec,
    sum_gp_closed_form,
    sum_series,
    sum_via_integral,
)
from eulersum.quad import integrate
from eulersum.specfun import POLYLOG_ABS_ERROR, polylog, polylog_one_minus

mpmath = pytest.importorskip("mpmath")

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Orders: the small ones the oracle checks, the closed forms at 0 and 1, the
# branch switch at 63/64, and huge ones that must not cost time linear in
# the order; a few negatives.
orders = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.sampled_from([0, 1, 2, 63, 64, 65, 10**6, 10**9, 10**12]),
    st.integers(min_value=201, max_value=10**12),
    st.integers(min_value=-3, max_value=-1),
)
# Arguments: the whole interval, its endpoints and branch edges, the
# representability floor near 0, and values just outside.
unit = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1e-300, 5e-324, 1.0 - 2.0**-53]),
    st.floats(min_value=-1.5, max_value=1.5),
    st.just(math.nan),
)


def timed(fn, *args):
    """(value or None, raised ValueError?) of fn(*args), held to one second."""
    start = time.perf_counter()
    try:
        value, rejected = fn(*args), False
    except ValueError:
        value, rejected = None, True
    assert time.perf_counter() - start < 1.0
    return value, rejected


@SETTINGS
@given(orders, unit)
def test_polylog(s, x):
    value, rejected = timed(polylog, s, x)
    in_domain = s >= 0 and -1.0 <= x <= 1.0 and not (x == 1.0 and s < 2)
    assert rejected != in_domain
    if rejected:
        return
    assert math.isfinite(value)
    if s > 200:
        assert abs(value - x) <= 2.0 ** (1 - 200)
        return
    with mpmath.workdps(30):
        reference = mpmath.polylog(s, mpmath.mpf(x))
    assert abs(value - reference) <= POLYLOG_ABS_ERROR * max(1.0, abs(reference))


@SETTINGS
@given(orders, unit)
def test_polylog_one_minus(s, t):
    value, rejected = timed(polylog_one_minus, s, t)
    in_domain = s >= 0 and 0.0 <= t <= 1.0 and not (t == 0.0 and s < 2)
    if s == 0 and 0.0 < t < 2.0**-1022:
        in_domain = not rejected  # (1 - t)/t leaves the float range in here
    assert rejected != in_domain
    if rejected:
        return
    assert math.isfinite(value)
    if s > 200:
        assert abs(math.fsum([value, t, -1.0])) <= 2.0**-53  # exact value - (1 - t)
        return
    with mpmath.workdps(30):
        t_exact = mpmath.mpf(t)
        if s == 0:  # (1 - t)/t: 1 - t is not representable at 30 digits
            reference = (1 - t_exact) / t_exact
        elif s == 1:
            reference = -mpmath.log(t_exact)
        else:
            reference = mpmath.polylog(s, 1 - t_exact)
    assert abs(value - reference) <= POLYLOG_ABS_ERROR * max(1.0, abs(reference))


@SETTINGS
@given(st.one_of(orders, st.integers(min_value=-10, max_value=1)))
def test_zeta(s):
    value, rejected = timed(zeta, s)
    assert rejected == (s < 2)
    if rejected:
        return
    assert math.isfinite(value)
    if s > 200:
        assert value == 1.0
        return
    with mpmath.workdps(30):
        assert abs(value - mpmath.zeta(s)) <= CERTIFIED_ABS_ERROR


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.lru_cache(maxsize=None)
def euler_sum(m: int, q: int) -> float:
    """S(m; q) for 2 <= q <= 63 from mpmath at 30 digits.

    m = 1 by Euler's formula (1775), S(1; q) = (1 + q/2) zeta(q+1)
    - 1/2 sum_{j=1}^{q-2} zeta(j+1) zeta(q-j); m = 2 by the closed forms
    for q <= 5 and otherwise by the partial sum to n = 2000, whose tail
    sum_{n>2000} H_n^2 / n^q < (1 + log n)^2 2000^-5 / 5 is below 5e-16.
    """
    with mpmath.workdps(30):
        z = mpmath.zeta
        if m == 1:
            value = (1 + mpmath.mpf(q) / 2) * z(q + 1) - mpmath.fsum(
                z(j + 1) * z(q - j) for j in range(1, q - 1)
            ) / 2
        elif q <= 5:
            value = {
                2: mpmath.mpf(17) / 4 * z(4),
                3: mpmath.mpf(7) / 2 * z(5) - z(2) * z(3),
                4: mpmath.mpf(97) / 24 * z(6) - 2 * z(3) ** 2,
                5: 6 * z(7) - z(2) * z(5) - mpmath.mpf(5) / 2 * z(3) * z(4),
            }[q]
        else:
            harmonic = mpmath.mpf(0)
            terms = []
            for n in range(1, 2001):
                harmonic += mpmath.mpf(1) / n
                terms.append(harmonic**2 / mpmath.mpf(n) ** q)
            value = mpmath.fsum(terms)
        return float(value)


# From q = 64 on S(m; q) - 1 < 2^-61 and the routes return 1.0. Orders:
# the checked range, the edges of that shortcut and of the domain, just
# outside it, and values that are not ints.
sum_orders = st.one_of(
    st.integers(min_value=2, max_value=63),
    st.sampled_from([63, 64, 133, 134, MAX_Q, MAX_Q + 1, 10**12, 1, 0, -3]),
    st.sampled_from([2.0, 2.5, True, None]),
)

# sum_series serves every tol >= 1e-12 to near 1e-15 (its docstring); the
# bound adds the 5e-16 of the partial-sum oracle.
SERIES_BOUND = 2e-15


@SETTINGS
@given(st.sampled_from([1, 2, 0, 3, True, 1.0, 2.0]), sum_orders,
       st.sampled_from([1e-10, 1e-12, 1e-6, 1e-13, 0.0, math.nan]))
def test_sum_series(m, q, tol):
    value, rejected = timed(lambda: sum_series(EulerSumSpec(m, q), tol=tol))
    in_domain = m in (1, 2) and is_int(m) and is_int(q) and 2 <= q <= MAX_Q
    assert rejected != (in_domain and tol >= 1e-12)
    if rejected:
        return
    if q >= 64:
        assert value == 1.0
    else:
        assert abs(value - euler_sum(m, q)) <= SERIES_BOUND


@SETTINGS
@given(st.one_of(
    st.integers(min_value=1, max_value=31),
    st.sampled_from([31, 32, (MAX_Q - 1) // 2, (MAX_Q + 1) // 2, 10**12, 0, -1]),
    st.sampled_from([2.0, True, None]),
))
def test_sum_gp_closed_form(p):
    value, rejected = timed(sum_gp_closed_form, p)
    assert rejected != (is_int(p) and 1 <= p <= (MAX_Q - 1) // 2)
    if rejected:
        return
    if 2 * p + 1 >= 64:
        assert value == 1.0
    else:
        # At most 62 products of zeta values below 1.65, each within
        # 2.5e-16 per factor and one rounding: under 1e-13 in all.
        assert abs(value - euler_sum(1, 2 * p + 1)) <= 1e-13


@SETTINGS
@given(sum_orders, st.one_of(
    st.floats(min_value=-17.0, max_value=-3.0).map(lambda e: 10.0**e),
    st.sampled_from([1e-10, 1e-12, 9.9e-13, 0.0, -1e-3, math.nan, math.inf]),
))
def test_sum_via_integral(q, tol):
    # Every accepted (q, tol) converges: tol takes sum_series' floor, 1e-12,
    # at every order, so a QuadratureError fails the property. inf is no tol.
    value, rejected = timed(lambda: sum_via_integral(q, tol=tol))
    assert rejected != (is_int(q) and 2 <= q <= MAX_Q and 1e-12 <= tol < math.inf)
    if not rejected:
        if q >= 64:
            assert value == 1.0
        else:
            # A converged estimate below tol, the true error within 10 of it.
            assert abs(value - euler_sum(1, q)) <= 10.0 * tol


@st.composite
def integrals(draw):
    """(f, exact): an integrand on (0, 1) with an antiderivative F in
    mpmath, exact = F(1) - F(0)."""
    kind = draw(st.sampled_from(["power", "exp", "log", "rsqrt"]))
    if kind == "power":
        k = draw(st.integers(min_value=0, max_value=6))
        f, F = (lambda t: t**k), (lambda x: x ** (k + 1) / (k + 1))
    elif kind == "exp":
        c = draw(st.sampled_from([-5.0, -1.0, 0.5, 3.0]))
        f, F = (lambda t: np.exp(c * t)), (lambda x: mpmath.exp(c * x) / c)
    elif kind == "log":
        f, F = np.log, (lambda x: x * mpmath.log(x) - x if x else x)
    else:
        f, F = (lambda t: 1.0 / np.sqrt(t)), (lambda x: 2 * mpmath.sqrt(x))
    with mpmath.workdps(30):
        return f, float(F(mpmath.mpf(1)) - F(mpmath.mpf(0)))


@SETTINGS
@given(
    integrals(),
    st.one_of(
        st.floats(min_value=-14.0, max_value=-2.0).map(lambda e: 10.0**e),
        st.sampled_from([0.0, -1e-8, math.nan]),
    ),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)
def test_integrate(integral, tol, nan_from):
    f, exact = integral
    sizes = []

    def counted(t):
        sizes.append(t.size)
        if nan_from is None:
            return f(t)
        # NaN from t = nan_from on: a failed result, unless no node
        # evaluated lies there.
        return np.where(t >= nan_from, np.nan, f(t))

    result, rejected = timed(lambda: integrate(counted, tol))
    assert rejected != (tol > 0.0)
    if rejected:
        return
    assert math.isfinite(result.value)
    # Converged or not, the count is every point evaluated.
    assert result.evaluations == sum(sizes)
    if result.converged:
        assert result.abs_error_estimate < tol
        # The README's bound: the true error within 10 times the estimate.
        assert abs(result.value - exact) <= 10.0 * result.abs_error_estimate


# eval NAME: (parameter kinds, accepted domain, the package function).
EVAL = {
    "zeta": ("i", lambda s: s >= 2, zeta),
    "polylog": (
        "if",
        lambda s, x: s >= 0 and -1.0 <= x <= 1.0 and not (x == 1.0 and s < 2),
        polylog,
    ),
    "hsum": (
        "ii",
        lambda m, q: m in (1, 2) and 2 <= q <= MAX_Q,
        lambda m, q: sum_series(EulerSumSpec(m, q)),
    ),
    "gp": ("i", lambda p: 1 <= p <= (MAX_Q - 1) // 2, sum_gp_closed_form),
    "integral": ("i", lambda q: 2 <= q <= MAX_Q, sum_via_integral),
}
cli_ints = st.one_of(
    st.integers(min_value=-3, max_value=70),
    st.sampled_from([MAX_Q, MAX_Q + 1, (MAX_Q - 1) // 2, (MAX_Q + 1) // 2, 10**12]),
    st.integers(min_value=-(10**15), max_value=10**15),
)
cli_floats = st.one_of(
    st.floats(min_value=-1.5, max_value=1.5),
    st.sampled_from([-1.0, 1.0, -0.0, -1e-05, 5e-324, -5e-324, math.inf, math.nan]),
    st.floats(),
)
# Strings that are no number of either kind, or no int ("2.0", "1e3"), or
# out of every domain as a float ("2.0", "1e3", "nan"); "-h" and "-x" look
# like options. The rest are no ASCII decimal literal, though int() or
# float() would read them: underscores, surrounding whitespace, non-ASCII
# digits.
cli_junk = st.sampled_from(
    ["", "x", "2.0", "2.5", "1e3", "0x10", "1,5", "nan", "-h", "-x",
     "3_0", " 3", "3 ", "\u0663", "1_000", " 0.5 ", "0.5_0", "\t2", "\u0660.5"]
)


@st.composite
def eval_requests(draw):
    """(name, parameter strings, accepted?) for `eulersum eval`."""
    name = draw(st.sampled_from(sorted(EVAL)))
    kinds, in_domain, _ = EVAL[name]
    params, values = [], []
    for kind in kinds:
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            params.append(draw(cli_junk))
            values.append(None)
        else:
            value = draw(cli_ints if kind == "i" else cli_floats)
            params.append(str(value) if kind == "i" else repr(value))
            values.append(value)
    # Sometimes one parameter too few or too many.
    extra = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    if extra < 0:
        params.pop()
    elif extra > 0:
        params.append("2")
    accepted = extra == 0 and None not in values and in_domain(*values)
    return name, params, accepted


@settings(
    SETTINGS,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(eval_requests())
def test_cli_eval(capsys, eval_request):
    name, params, accepted = eval_request
    capsys.readouterr()  # drop the output of earlier examples
    start = time.perf_counter()
    code = main(["eval", name, *params])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    if accepted:
        assert (code, err) == (0, "")
        value = float(out)
        assert out == f"{value!r}\n" and math.isfinite(value)
        kinds, _, function = EVAL[name]
        args = [int(p) if k == "i" else float(p) for k, p in zip(kinds, params)]
        assert value == function(*args)
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"eulersum: eval {name}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
