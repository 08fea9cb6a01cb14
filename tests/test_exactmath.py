"""Exact arithmetic layer: oracles are independent recurrences."""

import gc
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, strategies as st

from eulersum import exactmath
from eulersum.exactmath import (
    alt_binomial_sum,
    bernoulli,
    binomial,
    harmonic_exact,
    moment_integral_exact,
    weighted_power_sum,
)


def pascal_triangle(rows: int) -> list[list[int]]:
    """Additive Pascal recurrence, the independent oracle for binomial()."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n by the Akiyama-Tanigawa transform.

    This yields the B_1 = +1/2 convention; even indices agree with the
    recurrence convention used by the package, which is all we compare.
    """
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


class TestBinomial:
    def test_small_pascal_value(self):
        assert binomial(5, 2) == 10

    def test_identity_cases(self):
        for n in (0, 1, 7, 40):
            assert binomial(n, 0) == 1
            assert binomial(n, n) == 1

    def test_against_pascal_recurrence(self):
        tri = pascal_triangle(30)
        assert binomial(30, 15) == tri[30][15] == 155117520
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(2, -1)


class TestHarmonicExact:
    def test_single_term(self):
        assert Fraction(*harmonic_exact(1, 1)) == 1

    def test_finite_sums(self):
        assert Fraction(*harmonic_exact(3, 1)) == Fraction(11, 6)
        assert Fraction(*harmonic_exact(3, 2)) == Fraction(49, 36)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            harmonic_exact(0, 1)
        with pytest.raises(ValueError):
            harmonic_exact(3, 0)

    @pytest.mark.parametrize("r", [1.5, 2.0, True, "2"])
    def test_non_integer_exponent_is_a_value_error(self, r):
        with pytest.raises(ValueError, match="integer exponent"):
            harmonic_exact(3, r)

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=1, max_value=4))
    def test_difference_property(self, n, r):
        difference = Fraction(*harmonic_exact(n, r)) - Fraction(*harmonic_exact(n - 1, r))
        assert difference == Fraction(1, n**r)


class TestWeightedPowerSum:
    def test_zero_exponent_sums_the_weights(self):
        assert weighted_power_sum([1, 2], 0) == 3

    @pytest.mark.parametrize("p", [-1, 1.5, 2.0, True, None])
    def test_bad_exponent_is_a_value_error(self, p):
        with pytest.raises(ValueError):
            weighted_power_sum([1, 2], p)


class TestAltBinomialSum:
    def test_single_term(self):
        assert Fraction(*alt_binomial_sum(1, 1)) == -1

    def test_p1_equals_minus_harmonic(self):
        assert Fraction(*alt_binomial_sum(3, 1)) == Fraction(-11, 6)
        for n in range(1, 61):
            assert Fraction(*alt_binomial_sum(n, 1)) == -Fraction(*harmonic_exact(n, 1))

    def test_direct_rational_sum(self):
        # n = 2, p = 2: -C(2,1)/1 + C(2,2)/4 = -2 + 1/4
        value = Fraction(*alt_binomial_sum(2, 2))
        assert value == Fraction(-2) + Fraction(1, 4) == Fraction(-7, 4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alt_binomial_sum(0, 1)
        with pytest.raises(ValueError):
            alt_binomial_sum(1, 0)


class TestMomentIntegralExact:
    def test_n1_single_moment(self):
        # (-1)^2 * 1 * int_0^1 log t dt = -1, and equals 1! * alt_binomial_sum(1, 1)
        moment = Fraction(*moment_integral_exact(1, 1))
        assert moment == Fraction(-1)
        assert moment == factorial(1) * Fraction(*alt_binomial_sum(1, 1))

    def test_n2_p2_value(self):
        # 2 * int_0^1 (1-t) log^2 t dt = 2 (2 - 1/4) = 7/2, with the (-1)^3 sign
        assert Fraction(*moment_integral_exact(2, 2)) == Fraction(-7, 2)

    def test_n3_p1_cross_check(self):
        moment = Fraction(*moment_integral_exact(3, 1))
        assert moment == factorial(1) * Fraction(*alt_binomial_sum(3, 1))

    def test_identity_against_expansion_oracle(self):
        for n in range(1, 13):
            for p in range(1, 5):
                alt_sum = factorial(p) * Fraction(*alt_binomial_sum(n, p))
                assert alt_sum == Fraction(*moment_integral_exact(n, p))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            moment_integral_exact(0, 1)
        with pytest.raises(ValueError):
            moment_integral_exact(1, 0)


class TestIntegerArguments:
    """Every integer parameter of the exact layer takes an int: a bool or an
    integral float is a ValueError, as is any other type."""

    @pytest.mark.parametrize("fn", [harmonic_exact, alt_binomial_sum, moment_integral_exact])
    @pytest.mark.parametrize("n", [2.0, True, 1.5, "2", None])
    def test_sum_length(self, fn, n):
        with pytest.raises(ValueError, match="integer n"):
            fn(n, 1)

    @pytest.mark.parametrize("m", [2.0, False, True, 0.0, "2", None])
    def test_bernoulli_index(self, m):
        with pytest.raises(ValueError, match="integer m"):
            bernoulli(m)

    @pytest.mark.parametrize("n,k", [(5.0, 2), (5, 2.0), (True, 0), (5, False), ("5", 2)])
    def test_binomial(self, n, k):
        with pytest.raises(ValueError, match="integer"):
            binomial(n, k)


class TestBernoulli:
    def test_b0(self):
        assert bernoulli(0) == 1

    def test_small_values_against_recurrence_oracle(self):
        oracle = akiyama_tanigawa(32)
        assert bernoulli(2) == oracle[2] == Fraction(1, 6)
        assert bernoulli(4) == oracle[4] == Fraction(-1, 30)
        for m in range(0, 33, 2):
            assert bernoulli(m) == oracle[m]

    def test_beyond_precomputed_range(self):
        oracle = akiyama_tanigawa(40)
        assert bernoulli(40) == oracle[40]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernoulli(3)
        with pytest.raises(ValueError):
            bernoulli(-2)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for m in range(0, 61, 2):
                b = bernoulli(m)
                assert b == Fraction(*mpmath.bernfrac(m))
                value = mpmath.mpf(b.numerator) / b.denominator
                assert abs(value - mpmath.bernoulli(m)) <= 1e-50 * abs(value)

    def test_import_builds_only_what_it_needs(self):
        # euler_gamma needs B_2..B_14 at import; the rest is built on demand.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import eulersum; print(len(eulersum.exactmath._BERNOULLI))"],
            capture_output=True, text=True, check=True,
        )
        assert int(proc.stdout) <= 15


class TestCommonDenominatorSums:
    """The lcm-denominator sums against their plain Fraction definitions."""

    def test_pairs_are_unreduced_over_the_lcm_power(self):
        # Each sum is its integer dot product over lcm(1..n)^p, positive and
        # unreduced: -7/2 comes back over lcm(1, 2)^3 = 8.
        assert harmonic_exact(3, 1) == (11, 6)
        assert alt_binomial_sum(2, 2) == (-7, 4)
        assert moment_integral_exact(2, 2) == (-28, 8)
        for n, p in [(1, 1), (12, 4), (60, 1)]:
            for pair, power in ((harmonic_exact(n, p), p),
                                (alt_binomial_sum(n, p), p),
                                (moment_integral_exact(n, p), p + 1)):
                numerator, denominator = pair
                assert type(numerator) is int and type(denominator) is int
                assert denominator == lcm(*range(1, n + 1)) ** power

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=4))
    def test_harmonic(self, n, p):
        plain = sum(Fraction(1, k**p) for k in range(1, n + 1))
        assert Fraction(*harmonic_exact(n, p)) == plain

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=4))
    def test_alt_binomial_sum(self, n, p):
        plain = sum(Fraction((-1) ** k * comb(n, k), k**p) for k in range(1, n + 1))
        assert Fraction(*alt_binomial_sum(n, p)) == plain

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=4))
    def test_moment_integral(self, n, p):
        plain = sum(
            Fraction((-1) ** j * comb(n - 1, j), (j + 1) ** (p + 1)) for j in range(n)
        )
        assert Fraction(*moment_integral_exact(n, p)) == -n * factorial(p) * plain


class TestMemoisedTables:
    """The exact sums read memoised share tables and binomial rows."""

    @pytest.mark.parametrize("n, p", [(200, 3), (65, 1), (130, 1)])
    def test_beyond_memo_range(self, n, p):
        beyond_shares = n * n * p > exactmath._MEMO_SHARE_BITS
        assert beyond_shares or n > exactmath._MEMO_ROW_MAX_N
        harmonic = sum(Fraction(1, k**p) for k in range(1, n + 1))
        alt = sum(Fraction((-1) ** k * comb(n, k), k**p) for k in range(1, n + 1))
        moment = -n * factorial(p) * sum(
            Fraction((-1) ** j * comb(n - 1, j), (j + 1) ** (p + 1)) for j in range(n)
        )
        for _ in range(2):
            assert Fraction(*harmonic_exact(n, p)) == harmonic
            assert Fraction(*alt_binomial_sum(n, p)) == alt
            assert Fraction(*moment_integral_exact(n, p)) == moment

    def test_repeated_calls_are_equal(self):
        for n, p in [(1, 1), (12, 4), (60, 1)]:
            sums = (harmonic_exact, alt_binomial_sum, moment_integral_exact)
            first = [f(n, p) for f in sums]
            again = [f(n, p) for f in sums]
            assert first == again
            assert Fraction(*again[0]) == sum(Fraction(1, k**p) for k in range(1, n + 1))

    @pytest.mark.parametrize("n, p", [(12, 4), (200, 3)])
    def test_tables_are_immutable(self, n, p):
        shares, denominator = exactmath._share_table(n, p)
        assert type(shares) is tuple and len(shares) == n
        for k, m in enumerate(shares, 1):
            assert type(m) is int and m * k**p == denominator
        row = exactmath._signed_binomials(n)
        assert type(row) is tuple
        assert row == tuple((-1) ** k * comb(n, k) for k in range(n + 1))

    def test_retained_memory_is_bounded(self):
        exactmath._share_table_memo.cache_clear()
        exactmath._signed_binomials_memo.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            harmonic_exact(2000, 4)  # ~3 MB of shares, too large to keep
            assert tracemalloc.get_traced_memory()[0] - base < 50_000
            for n in range(2, 130, 2):  # more memoisable keys than the memo holds
                for p in (1, 2, 4):
                    alt_binomial_sum(n, p)
                    moment_integral_exact(n, p)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        memo = exactmath._share_table_memo.cache_info()
        assert memo.currsize <= exactmath._MEMO_SHARE_TABLES
        assert retained < 1_500_000


class TestRationalArithmetic:
    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=1000),
        st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    )
    def test_roundtrip_and_canonical_form(self, a, b):
        assert (a + b) - b == a
        c = a + b
        assert c.denominator > 0
        from math import gcd

        assert gcd(abs(c.numerator), c.denominator) == 1

    def test_operations_stay_canonical(self):
        x = Fraction(*harmonic_exact(10, 1)) * Fraction(*alt_binomial_sum(4, 2))
        assert x.denominator > 0
        from math import gcd

        assert gcd(abs(x.numerator), x.denominator) == 1
