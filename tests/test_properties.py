"""Hypothesis properties of zeta, polylog and polylog_one_minus.

Over each function's accepted domain (and just outside it), every call
either returns a finite value or raises ValueError, and takes under a
second, for orders up to 10^12. A value at an order s <= 200 is checked
against mpmath at 30 digits; above that, Li_s(x) is within 2^(1-s) of x
and zeta(s) within 2^(1-s) of 1, far below a rounding error.
"""

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eulersum.constants import CERTIFIED_ABS_ERROR, zeta
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
