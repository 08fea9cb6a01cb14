"""Constant tables: cross-checked against pi powers and Bernoulli forms."""

import math
import time

import pytest

from eulersum.constants import CERTIFIED_ABS_ERROR, euler_gamma, zeta, zeta_table
from eulersum.exactmath import bernoulli
from eulersum.specfun import harmonic_float

# 20-digit literals kept only as test oracles; the library computes its own.
GAMMA_ORACLE = 0.57721566490153286061
ZETA_ORACLES = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
}


class TestZeta:
    @pytest.mark.parametrize("s,expected", sorted(ZETA_ORACLES.items()))
    def test_reference_digits(self, s, expected):
        assert abs(zeta(s) - expected) <= 1e-15

    def test_pi_power_cross_checks(self):
        assert abs(zeta(2) - math.pi**2 / 6.0) <= 2e-15
        assert abs(zeta(4) - math.pi**4 / 90.0) <= 2e-15

    def test_even_index_bernoulli_closed_form(self):
        # zeta(2k) = (-1)^(k+1) B_2k (2 pi)^(2k) / (2 (2k)!)
        for k in range(1, 8):
            closed = (
                (-1.0) ** (k + 1)
                * float(bernoulli(2 * k))
                * (2.0 * math.pi) ** (2 * k)
                / (2.0 * math.factorial(2 * k))
            )
            assert abs(zeta(2 * k) - closed) <= 2e-15

    def test_monotone_decreasing_to_one(self):
        values = [zeta(s) for s in range(2, 30)]
        assert all(v > 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tail_bracket(self):
        # zeta(s) - 1 - 2^-s = sum_{n>=3} n^-s: above 3^-s, and below
        # 3^-s + integral_3^inf x^-s dx = 3^-s (1 + 3/(s-1)). The clean
        # two-sided bracket (0, 2 * 3^-s) only holds from s = 4 up.
        for s in range(2, 25):
            tail = zeta(s) - 1.0 - 2.0**-s
            assert tail > 3.0**-s
            assert tail < 3.0**-s * (1.0 + 3.0 / (s - 1.0))
        for s in range(4, 25):
            tail = zeta(s) - 1.0 - 2.0**-s
            assert 0.0 < tail < 2.0 * 3.0**-s

    def test_first_omitted_term_dominates(self):
        for s in range(2, 21):
            assert 0.0 < zeta(s) - 1.0 <= 2.0 ** (1 - s) * 2.0

    def test_recomputation_is_bit_identical(self):
        assert zeta(2) == zeta(2)
        assert zeta(19) == zeta(19)
        first = zeta(27)  # on-demand branch above the precomputed table
        assert first == zeta(27)

    def test_large_s_direct_series_branch(self):
        assert abs(zeta(25) - 1.0 - 2.0**-25) < 2.0 * 3.0**-25

    def test_domain_errors(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                zeta(bad)
        with pytest.raises(ValueError):
            zeta(2.5)
        with pytest.raises(ValueError):
            zeta(True)


class TestZetaAboveTable:
    """The float direct sum that serves s > S_MAX."""

    @pytest.mark.parametrize("s", [21, 25, 53, 54, 60, 61, 64, 1000, 20000,
                                   pytest.param(10**400, id="10**400")])
    def test_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.zeta(s)
            assert abs(mpmath.mpf(zeta(s)) - exact) <= CERTIFIED_ABS_ERROR

    @pytest.mark.parametrize("s", [21, 25, 53, 54, 64, 1000, 20000, 10**9,
                                   pytest.param(10**400, id="10**400")])
    def test_each_call_under_a_millisecond(self, s):
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            zeta(s)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3


class TestZetaTable:
    def test_coverage_and_bound(self):
        table = zeta_table()
        assert set(table.values.keys()) == set(range(2, 21))
        assert table.certified_abs_error <= 1e-15
        assert table.values[2] == zeta(2)

    def test_read_only(self):
        table = zeta_table()
        with pytest.raises(TypeError):
            table.values[2] = 0.0  # type: ignore[index]


class TestEulerGamma:
    def test_against_oracle_literal(self):
        assert abs(euler_gamma() - GAMMA_ORACLE) <= 1e-15

    def test_coarse_bracket(self):
        assert 0.5 < euler_gamma() < 0.6

    def test_harmonic_consistency(self):
        # H_n - log n - gamma ~ 1/(2n): positive and below 1e-6 at n = 10^6
        n = 10**6
        gap = harmonic_float(n) - math.log(n) - euler_gamma()
        assert 0.0 < gap < 1e-6

    def test_deterministic(self):
        assert euler_gamma() == euler_gamma()
