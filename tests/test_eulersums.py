"""Euler sums: the three evaluation routes must agree with each other and
with the zeta closed forms."""

import inspect
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from paper_kernels import raw_double_integral_kernel

from eulersum import eulersums, quad
from eulersum.constants import euler_gamma, zeta
from eulersum.eulersums import (
    EulerSumSpec,
    double_integral_kernel,
    inner_integral,
    inner_integral_quadrature,
    integral_representation_integrand,
    outer_integrand,
    quadratic_sum_double_integral,
    quadratic_sum_q2_via_outer,
    sum_gp_closed_form,
    sum_series,
    sum_via_integral,
)
from eulersum.quad import QuadratureError
from eulersum.specfun import polylog

TWO_ZETA3 = 2.0 * zeta(3)
HALF_ZETA2_SQ = 0.5 * zeta(2) ** 2
SERIES_GOLDEN = Path(__file__).with_name("series_golden.json")
DEDOELDER = 17.0 / 4.0 * zeta(4)


def numpy_dispatch_level():
    """The highest x86-64 level whose kernels numpy dispatches in this
    process, "X86_V4" (AVX-512), "X86_V3" (AVX2) or "X86_V2", lowered by
    NPY_DISABLE_CPU_FEATURES; None on another architecture."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    if features.get("X86_V4", features.get("AVX512_SKX")):
        return "X86_V4"
    if features.get("X86_V3", features.get("AVX2") and features.get("FMA3")):
        return "X86_V3"
    return "X86_V2"


class TestSpecValidation:
    def test_valid_specs(self):
        assert EulerSumSpec(1, 2).q == 2
        assert EulerSumSpec(2, 7).h_power == 2

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            EulerSumSpec(3, 2)
        with pytest.raises(ValueError):
            EulerSumSpec(0, 2)

    def test_rejects_divergent_exponent(self):
        with pytest.raises(ValueError):
            EulerSumSpec(1, 1)
        with pytest.raises(ValueError):
            EulerSumSpec(1, 2.5)  # type: ignore[arg-type]

    @pytest.mark.parametrize("h_power", [True, 1.0, 2.0])
    def test_rejects_non_integer_power(self, h_power):
        # True == 1 and 1.0 == 1: neither may pass as h_power = 1.
        with pytest.raises(ValueError, match="integer"):
            EulerSumSpec(h_power, 2)

    def test_rejects_exponent_above_max(self):
        assert EulerSumSpec(1, eulersums.MAX_Q).q == eulersums.MAX_Q
        with pytest.raises(ValueError):
            EulerSumSpec(1, eulersums.MAX_Q + 1)


class TestSumSeries:
    def test_euler_value(self):
        assert abs(sum_series(EulerSumSpec(1, 2)) - TWO_ZETA3) <= 1e-12
        assert abs(sum_series(EulerSumSpec(1, 2)) - 2.404113806319188) <= 1e-10

    def test_q3_value(self):
        assert abs(sum_series(EulerSumSpec(1, 3)) - HALF_ZETA2_SQ) <= 1e-12
        assert abs(sum_series(EulerSumSpec(1, 3)) - 1.352904042138923) <= 1e-10

    def test_squared_harmonic_value(self):
        assert abs(sum_series(EulerSumSpec(2, 2)) - DEDOELDER) <= 1e-12

    def test_tail_acceleration_validity(self):
        # the same series summed to n = 20,000 must not differ from the
        # 200-term partial sum plus tail by more than tol
        tol = 1e-12
        for spec in (EulerSumSpec(1, 2), EulerSumSpec(1, 3),
                     EulerSumSpec(2, 2), EulerSumSpec(2, 3), EulerSumSpec(1, 7)):
            base = sum_series(spec, tol=tol)
            longer = reference_sum_series(spec.h_power, spec.q, 20_000)
            assert abs(base - longer) < tol, spec

    def test_monotone_decreasing_in_q(self):
        for m in (1, 2):
            values = [sum_series(EulerSumSpec(m, q)) for q in range(2, 7)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_tolerance_floor(self):
        for tol in (1e-13, 0.0, -1.0, math.nan, None, "x", True, math.inf):
            with pytest.raises(ValueError, match="^sum_series requires tol >= 1e-12"):
                sum_series(EulerSumSpec(1, 2), tol=tol)
        with pytest.raises(ValueError, match="^sum_series requires an EulerSumSpec"):
            sum_series([1, 2])


def reference_sum_series(m: int, q: int, cutoff: int) -> float:
    """sum_series as a per-term Neumaier loop plus an independent tail.

    The reference for the table-driven sum_series: the partial sum
    accumulates H_n term by term, and the tail comes from mpmath.
    """
    terms = []
    h = 0.0
    comp = 0.0
    for n in range(1, cutoff + 1):
        t = 1.0 / n
        s = h + t
        if abs(h) >= abs(t):
            comp += (h - s) + t
        else:
            comp += (t - s) + h
        h = s
        terms.append((h + comp) ** m / float(n) ** q)
    return math.fsum(terms) + reference_tail(m, q, cutoff)


def reference_tail(m: int, q: int, cutoff: int) -> float:
    """sum_{n > cutoff} of the asymptotic expansion of H_n^m / n^q.

    H_n ~ log n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4), squared and
    truncated at n^-4 for m = 2, summed term by term through mpmath's
    Hurwitz-zeta derivatives at 30 digits:
    sum_{n > N} log(n)^i n^-s = (-1)^i zeta^(i)(s, N + 1).
    """
    mpmath = pytest.importorskip("mpmath")
    h_items = {
        (1, 0): 1.0,
        (0, 0): euler_gamma(),
        (0, 1): 0.5,
        (0, 2): -1.0 / 12.0,
        (0, 4): 1.0 / 120.0,
    }
    with mpmath.workdps(30):
        expansion = {key: mpmath.mpf(c) for key, c in h_items.items()}
        if m == 2:
            square = {}
            for (i1, e1), c1 in expansion.items():
                for (i2, e2), c2 in expansion.items():
                    if e1 + e2 <= 4:
                        key = (i1 + i2, e1 + e2)
                        square[key] = square.get(key, 0) + c1 * c2
            expansion = square
        return float(mpmath.fsum(
            c * (-1) ** i * mpmath.zeta(q + e, cutoff + 1, i)
            for (i, e), c in expansion.items()
        ))


class TestSeriesTables:
    """sum_series reads tables built once; its doubles must not change."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", range(2, 12))
    def test_bit_identical_to_reference_loop(self, m, q):
        expected = reference_sum_series(m, q, eulersums.SERIES_CUTOFF)
        assert sum_series(EulerSumSpec(m, q)) == expected
        assert sum_series(EulerSumSpec(m, q)) == expected  # memoised tables

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", range(2, 64))
    def test_bit_identical_to_per_term_formula(self, m, q):
        # The partial sum as 200 Python powers and divisions, plus the tail.
        partial = math.fsum(
            [h**m / n**q for h, n in zip(eulersums._HARMONICS, eulersums._NS)]
        )
        tail = eulersums._tail_sum(eulersums._HARMONIC_EXPANSIONS[m], q)
        assert sum_series(EulerSumSpec(m, q)) == partial + tail

    def test_every_double_pinned(self):
        # S(m; q) for every q below 64, from which it rounds to 1.0, as
        # hex strings. They are math-module arithmetic throughout (see the
        # per-term test), so they are the same on every CPU, and a change
        # to the tail or its expansions that moves any of them fails here.
        pinned = json.loads(SERIES_GOLDEN.read_text())
        values = {
            str(m): {str(q): sum_series(EulerSumSpec(m, q)).hex() for q in range(2, 64)}
            for m in (1, 2)
        }
        assert values == pinned

    def test_tables_are_immutable_and_bounded(self):
        harmonics, ns = eulersums._HARMONICS, eulersums._NS
        assert type(harmonics) is tuple and type(ns) is tuple
        assert len(harmonics) == len(ns) == eulersums.SERIES_CUTOFF
        assert ns == tuple(float(n) for n in range(1, eulersums.SERIES_CUTOFF + 1))
        assert harmonics == tuple(
            math.fsum(1.0 / k for k in range(1, n + 1)) for n in range(1, 201)
        )
        polynomials = eulersums._TAIL_POLYNOMIALS
        assert type(polynomials) is tuple
        assert all(type(p) is tuple for p in polynomials)
        assert all(type(c) is float for p in polynomials for c in p)
        expansions = eulersums._HARMONIC_EXPANSIONS
        assert type(expansions) is MappingProxyType and sorted(expansions) == [1, 2]
        assert all(type(items) is tuple for items in expansions.values())


class TestTailAgainstHurwitzZeta:
    """The Euler-Maclaurin tail against mpmath's Hurwitz-zeta derivatives.

    Dropping the B_6 correction from the tail polynomial moves the tail by
    up to about 7,900 units (q = 11) and fails here, though it moves no
    double of S(m; q).
    """

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", range(2, 12))
    def test_tail_within_four_units(self, m, q):
        tail = eulersums._tail_sum(eulersums._HARMONIC_EXPANSIONS[m], q)
        expected = reference_tail(m, q, eulersums.SERIES_CUTOFF)
        assert abs(tail - expected) <= 4 * 2.0**-52 * abs(expected)


class TestSeriesAgainstClosedForms:
    """sum_series at its default cutoff against closed forms in mpmath."""

    @staticmethod
    def mp():
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        return mpmath

    @pytest.mark.parametrize("q", range(2, 12))
    def test_euler_1775_formula(self, q):
        # S(1;q) = (1 + q/2) zeta(q+1) - 1/2 sum_{j=1}^{q-2} zeta(j+1) zeta(q-j)
        mp = self.mp()
        exact = (1 + mp.mpf(q) / 2) * mp.zeta(q + 1) - sum(
            (mp.zeta(j + 1) * mp.zeta(q - j) for j in range(1, q - 1)), mp.mpf(0)
        ) / 2
        value = sum_series(EulerSumSpec(1, q))
        assert abs(value - float(exact)) <= 1e-15 * float(exact)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [133, 134, 10**6])
    def test_large_q_rounds_to_one(self, m, q):
        # n**q overflows a double from q = 134 at n = 200; S(m; q) rounds
        # to 1.0 well before that.
        value = sum_series(EulerSumSpec(m, q))
        assert value == 1.0
        if m == 1:
            # Euler's formula; zeta(k) - 1 < 2^-99 for k > 100, so the
            # products with both orders above 100 are counted as 1, which
            # moves the sum by less than q 2^-98.
            mp = self.mp()
            edge = [j for j in range(1, q - 1) if j + 1 <= 100 or q - j <= 100]
            products = sum(
                (mp.zeta(j + 1) * mp.zeta(q - j) for j in edge), mp.mpf(0)
            ) + (q - 2 - len(edge))
            exact = (1 + mp.mpf(q) / 2) * mp.zeta(q + 1) - products / 2
            assert value == float(exact)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_squared_harmonic_closed_forms(self, q):
        # de Doelder 1991; Borwein, Borwein & Girgensohn 1995
        mp = self.mp()
        z = mp.zeta
        exact = {
            2: mp.mpf(17) / 4 * z(4),
            3: mp.mpf(7) / 2 * z(5) - z(2) * z(3),
            4: mp.mpf(97) / 24 * z(6) - 2 * z(3) ** 2,
        }[q]
        value = sum_series(EulerSumSpec(2, q))
        assert abs(value - float(exact)) <= 1e-15 * float(exact)


class TestGpClosedForm:
    def test_p1_single_term(self):
        assert abs(sum_gp_closed_form(1) - HALF_ZETA2_SQ) <= 1e-16
        assert abs(sum_gp_closed_form(1) - 1.352904042138923) <= 1e-10

    def test_p2_expansion(self):
        expanded = zeta(2) * zeta(4) - 0.5 * zeta(3) ** 2
        assert abs(sum_gp_closed_form(2) - expanded) <= 1e-15

    def test_p3_expansion(self):
        expanded = zeta(2) * zeta(6) - zeta(3) * zeta(5) + 0.5 * zeta(4) ** 2
        assert abs(sum_gp_closed_form(3) - expanded) <= 1e-15

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_series(self, p):
        closed = sum_gp_closed_form(p)
        series = sum_series(EulerSumSpec(1, 2 * p + 1))
        assert abs(closed - series) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            sum_gp_closed_form(0)


class TestSumViaIntegral:
    def test_q2(self):
        assert abs(sum_via_integral(2) - TWO_ZETA3) <= 1e-10

    def test_q3(self):
        assert abs(sum_via_integral(3) - HALF_ZETA2_SQ) <= 1e-10

    def test_q5_three_way(self):
        assert abs(sum_via_integral(5) - sum_gp_closed_form(2)) <= 1e-10

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_three_way_agreement(self, q):
        integral = sum_via_integral(q)
        series = sum_series(EulerSumSpec(1, q))
        assert abs(integral - series) <= 1e-9
        if q % 2 == 1:
            assert abs(integral - sum_gp_closed_form((q - 1) // 2)) <= 1e-9

    def test_integrand_smooth_limit_at_one(self):
        # Li_{q-1}(1-t)/(1-t) -> 1 as t -> 1, so f ~ -log t -> 0
        f = integral_representation_integrand(2)
        assert abs(f(1.0 - 1e-12)) < 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            sum_via_integral(1)

    def test_failure_names_its_reason(self, monkeypatch):
        points = []

        def below_floor(f, tol):
            def counted(t):
                points.append(t.size)
                return f(t)

            return quad.integrate(counted, 1e-18)

        monkeypatch.setattr(eulersums, "integrate", below_floor)
        with pytest.raises(QuadratureError) as raised:
            sum_via_integral(2)
        assert str(raised.value) == (
            "integral representation of S(1; 2) did not converge: "
            "no convergence within 12 refinement levels"
        )
        assert not raised.value.result.converged
        assert raised.value.result.evaluations == sum(points) == 37_926

    @pytest.mark.parametrize("q", [3, 63, 64, 10**6])
    def test_tol_floor(self, q):
        # sum_series' floor, checked before the q >= 64 shortcut.
        for tol in (1e-13, 0.0, -1.0, math.nan, None, "x", True, math.inf):
            with pytest.raises(ValueError, match="^sum_via_integral requires tol >= 1e-12"):
                sum_via_integral(q, tol=tol)
        value = sum_via_integral(q, tol=1e-12)
        assert abs(value - sum_series(EulerSumSpec(1, q))) <= 1e-12

    @pytest.mark.parametrize("q", [1, 2.0, True])
    def test_integrand_domain(self, q):
        with pytest.raises(ValueError):
            integral_representation_integrand(q)


class TestLargeOrders:
    """integral q and gp p take hsum's domain: from q = 64 (q = 2p+1 for gp)
    they return 1.0, above MAX_Q they raise ValueError, all in well under
    a second."""

    @staticmethod
    def timed(fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("q", [63, 64, 2**20])
    def test_integral_rounds_to_one(self, q):
        value = self.timed(sum_via_integral, q)
        assert abs(value - sum_series(EulerSumSpec(1, q))) <= 1e-10
        if q >= 64:
            assert value == 1.0

    @pytest.mark.parametrize("p", [31, 32, (2**20 - 1) // 2])
    def test_gp_rounds_to_one(self, p):
        value = self.timed(sum_gp_closed_form, p)
        assert abs(value - sum_series(EulerSumSpec(1, 2 * p + 1))) <= 1e-10
        if 2 * p + 1 >= 64:
            assert value == 1.0

    @pytest.mark.parametrize("q", [2**20 + 1, 10**12, 2.5, True])
    def test_integral_outside_domain(self, q):
        with pytest.raises(ValueError):
            self.timed(sum_via_integral, q)

    @pytest.mark.parametrize("p", [2**19, 10**12, 2.5, True])
    def test_gp_outside_domain(self, p):
        with pytest.raises(ValueError):
            self.timed(sum_gp_closed_form, p)


class TestInnerIntegral:
    def test_half(self):
        # 2 Li_2(-1) = -pi^2/6
        assert abs(inner_integral(0.5) + math.pi**2 / 6.0) <= 2e-15
        assert abs(inner_integral(0.5) + 1.6449340668482264) <= 1e-14

    def test_limit_toward_one(self):
        value = inner_integral(0.999)
        assert abs(value - (-1.0)) <= 1e-2

    @pytest.mark.parametrize("u", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_form_matches_quadrature(self, u):
        closed = inner_integral(u)
        quad = inner_integral_quadrature(u)
        assert quad.converged
        assert abs(closed - quad.value) <= 1e-10

    def test_quadrature_cross_check_at_0p3(self):
        quad = inner_integral_quadrature(0.3)
        assert abs(inner_integral(0.3) - quad.value) <= 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                inner_integral(bad)
            with pytest.raises(ValueError):
                inner_integral_quadrature(bad)

    def test_quadrature_takes_one_u(self, monkeypatch):
        # A 0-d array and a numpy scalar are one u; an array of several is
        # an error naming the function, before any quadrature.
        expected = inner_integral_quadrature(0.3)
        for u in (np.array(0.3), np.float64(0.3)):
            assert inner_integral_quadrature(u) == expected
        calls = []
        monkeypatch.setattr(eulersums, "integrate", lambda *args: calls.append(args))
        message = r"^inner_integral_quadrature requires one u, got shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            inner_integral_quadrature(np.array([0.3, 0.5]))
        assert calls == []

    @pytest.mark.parametrize("u, big", [([2**70], 2**70), ([0.5, 10**400], 10**400),
                                        ([[0.5], [-(2**70)]], -(2**70))],
                             ids=["list", "after-a-float", "nested"])
    def test_python_int_beyond_int64_in_a_list_is_a_domain_error(self, u, big):
        with pytest.raises(ValueError, match=f"^inner_integral requires u in .*, got {big}$"):
            inner_integral(u)
        with pytest.raises(ValueError, match="^inner_integral requires real u, got object$"):
            inner_integral(["0.5", big])

    @pytest.mark.parametrize("u", [0.5 + 1j, np.complex128(0.5 + 1j), np.array(0.5 + 1j)],
                             ids=["python", "numpy", "0-d"])
    def test_complex_is_an_error_naming_the_function(self, u):
        with pytest.raises(ValueError, match="^inner_integral requires real u"):
            inner_integral(u)
        with pytest.raises(ValueError, match="^inner_integral_quadrature requires real u"):
            inner_integral_quadrature(u)


class TestQuadraticSumOuter:
    def test_dedoelder_value(self):
        result = quadratic_sum_q2_via_outer()
        assert result.converged
        assert abs(result.value - DEDOELDER) <= 1e-10

    def test_component_split(self):
        # -1/2 int log^3 u/(1-u) = 3 zeta(4); the polylog piece gives
        # zeta(2)^2/2, and 3 zeta(4) + zeta(2)^2/2 = 17/4 zeta(4) because
        # zeta(2)^2 = 5/2 zeta(4).
        from eulersum.quad import integrate

        r = integrate(lambda u: np.log(u) ** 3 / (1.0 - u), 1e-12)
        half_log3 = -0.5 * r.value
        assert abs(half_log3 - 3.0 * zeta(4)) <= 1e-10
        assert abs(zeta(2) ** 2 - 2.5 * zeta(4)) <= 1e-14
        assert abs(half_log3 + HALF_ZETA2_SQ - DEDOELDER) <= 1e-10

    def test_outer_integrand_endpoints(self):
        # u -> 1: log u/(1-u) -> -1 and the dilogarithm factor vanishes
        assert abs(outer_integrand(1.0 - 1e-9)) < 1e-8
        # u -> 0: dominated by -log(u)^3/2 / 1
        u = 1e-6
        lead = -0.5 * math.log(u) ** 3
        assert abs(outer_integrand(u) - lead) / abs(lead) < 0.2


class TestDoubleIntegral:
    """The kernel after u = t v against the paper's raw kernel (tests/
    paper_kernels.py), and S(2; q) for 2 <= q <= 11 against the series and
    the closed forms."""

    @staticmethod
    def grid():
        # t as a row, v as a column, as integrate2d calls the kernel. u = t v
        # stays below 0.95, where log(t v) and log t + log v agree to 1e-15,
        # and w = (1-t)(1-u) above 5e-4, where log(1-w) keeps 12 digits.
        t = np.array([1e-9, 0.1, 0.35, 0.8, 0.99])
        v = np.array([1e-9, 0.05, 0.5, 0.95])
        return t[None, :], v[:, None]

    def test_kernel_symmetry(self):
        # The raw integrand is symmetric in (t, u), so the half u > t,
        # mapped by t = u v, gives the same kernel as the half u < t:
        # K(u, v) = 2 u K_raw(u v, u).
        u, v = self.grid()
        for q in (2, 3):
            got = double_integral_kernel(q)(u, v)
            want = 2.0 * u * raw_double_integral_kernel(q)(u * v, u)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_kernel_pointwise_value(self):
        # Splitting on the diagonal and setting u = t v:
        # K(t, v) = 2 t K_raw(t, t v).
        t, v = self.grid()
        for q in (2, 3):
            got = double_integral_kernel(q)(t, v)
            want = 2.0 * t * raw_double_integral_kernel(q)(t, t * v)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # q = 2 at t = v = 1/2: 2 log(1/2) 2 log(1/2) / (1 + 1/4) = 16/5 log(2)^2
        half = np.array([0.5])
        expected = 16.0 / 5.0 * math.log(2.0) ** 2
        assert double_integral_kernel(2)(half, half)[0] == pytest.approx(
            expected, rel=1e-15
        )

    def test_kernel_takes_li_from_polylog_array(self, monkeypatch):
        # For q >= 4 specfun alone splits Li_{q-2} by branch: the kernel
        # makes one polylog_array(q - 2, w) call per block, on w itself.
        calls = []
        real_polylog_array = eulersums.polylog_array

        def polylog_array(s, x):
            calls.append((s, x))
            return real_polylog_array(s, x)

        monkeypatch.setattr(eulersums, "polylog_array", polylog_array)
        t = np.linspace(0.01, 0.99, 41)[None, :]
        v = np.linspace(0.01, 0.99, 23)[:, None]
        w = (1.0 - t) * (1.0 - t * v)
        assert (w <= 0.5).any() and (w > 0.5).any()  # the block straddles 1/2
        logs = 2.0 * np.log(t) * (np.log(t) + np.log(v))
        for q in (2, 3):
            double_integral_kernel(q)(t, v)
        assert calls == []
        for q in (4, 7, 11):
            calls.clear()
            values = double_integral_kernel(q)(t, v)
            ((order, argument),) = calls
            assert order == q - 2
            np.testing.assert_array_equal(argument, w)
            # Every point against the scalar polylog.
            reference = np.vectorize(lambda x: polylog(q - 2, x))(w) / w * t * logs
            np.testing.assert_allclose(values, reference, rtol=1e-13, atol=0.0)

    def test_kernel_accepts_arrays(self):
        kernel = double_integral_kernel(3)
        t = np.array([0.25, 0.5])
        out = kernel(t, 0.5)
        assert out.shape == (2,)

    def test_q2_against_dedoelder(self):
        result = quadratic_sum_double_integral(2)
        assert result.converged
        assert abs(result.value - DEDOELDER) <= 1e-8

    def test_q3_against_series(self):
        result = quadratic_sum_double_integral(3)
        series = sum_series(EulerSumSpec(2, 3))
        assert result.converged
        assert abs(result.value - series) <= 1e-6

    # Every order takes all 75 outer rows to inner level 3: 75 x 75 points,
    # the whole opening pass of each inner rule, so the value does not
    # depend on how the inner levels are grouped into kernel calls. Pinned
    # as hex from the rule with one inner level per call.
    DOUBLES = {
        2: "0x1.266454d7455cep+2", 3: "0x1.a6e5b90d875adp+0",
        5: "0x1.17859e0962cf6p+0",
        6: "0x1.0a9a117cd08dfp+0", 7: "0x1.04fcded88cd16p+0",
        8: "0x1.026726ddcab46p+0", 9: "0x1.012c81cf7d054p+0",
        10: "0x1.00940b9ddba2ep+0", 11: "0x1.004951d4f6e5ap+0",
    }
    # numpy's float64 log, log1p, exp and ** round differently in its
    # AVX-512, AVX2 and baseline kernels, and q = 4 moves by one ulp with
    # them: read natively on an AVX-512 CPU, then with
    # NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4", and with
    # X86_V3 added. On another architecture no q = 4 double is pinned.
    DOUBLES_BY_LEVEL = {
        "X86_V4": {4: "0x1.38cd1fc4c982fp+0"},
        "X86_V3": {4: "0x1.38cd1fc4c982ep+0"},
        "X86_V2": {4: "0x1.38cd1fc4c982ep+0"},
    }

    @classmethod
    def doubles(cls, level) -> dict:
        return {**cls.DOUBLES, **cls.DOUBLES_BY_LEVEL.get(level, {})}

    @pytest.mark.parametrize("q", range(2, 12))
    def test_every_order_against_series(self, q):
        result = quadratic_sum_double_integral(q)
        assert result.converged
        assert result.evaluations == 5_625
        pinned = self.doubles(numpy_dispatch_level())
        assert q not in pinned or result.value.hex() == pinned[q]
        assert abs(result.value - sum_series(EulerSumSpec(2, q))) <= 1e-8

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_against_closed_forms(self, q):
        # de Doelder (1991) and Borwein, Borwein & Girgensohn (1995).
        mp = TestSeriesAgainstClosedForms.mp()
        z = mp.zeta
        exact = {
            2: mp.mpf(17) / 4 * z(4),
            3: mp.mpf(7) / 2 * z(5) - z(2) * z(3),
            4: mp.mpf(97) / 24 * z(6) - 2 * z(3) ** 2,
        }[q]
        result = quadratic_sum_double_integral(q)
        assert result.converged
        assert abs(result.value - float(exact)) <= 1e-8

    def test_domain(self):
        for q in (1, 12, 2.0, True):
            with pytest.raises(ValueError):
                double_integral_kernel(q)
            with pytest.raises(ValueError):
                quadratic_sum_double_integral(q)


# Every double that tests and CI pin through numpy's transcendental ufuncs,
# computed in one process: the 2-D rule for q = 2..11 (CI pins q = 2 and 3
# as the 2-D cases' lhs_value), sum_series (numpy's ** on its tables; every
# q < 64, CI's hsum pins among them), CI's `eval integral 2` and `5`, and
# dedoelder-halflog3's quadrature.
NUMPY_PINS = """
import json
import platform
from eulersum.eulersums import (EulerSumSpec, quadratic_sum_double_integral,
                                sum_series, sum_via_integral)
from eulersum.registry import builtin_registry
(halflog3,) = [c for c in builtin_registry() if c.id == "dedoelder-halflog3"]
print(json.dumps({
    "level": numpy_dispatch_level(),
    "doubles": {q: quadratic_sum_double_integral(q).value.hex() for q in range(2, 12)},
    "series": {m: {q: sum_series(EulerSumSpec(m, q)).hex() for q in range(2, 64)}
               for m in (1, 2)},
    "integral": [sum_via_integral(2), sum_via_integral(5)],
    "halflog3": halflog3.lhs().value,
}))
"""


@pytest.mark.skipif(numpy_dispatch_level() is None, reason="numpy's x86 kernels only")
@pytest.mark.parametrize("disabled", ["AVX512_SPR AVX512_ICL X86_V4",
                                      "AVX512_SPR AVX512_ICL X86_V4 X86_V3"])
def test_numpy_derived_pins_at_reduced_dispatch(disabled):
    # A CPU without AVX-512 (or AVX2) runs the kernels that this setting
    # selects: every pin must hold there as that level's pin.
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    script = inspect.getsource(numpy_dispatch_level) + NUMPY_PINS
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          text=True, capture_output=True)
    got = json.loads(proc.stdout)
    assert got["level"] in ("X86_V3", "X86_V2")  # the setting took effect
    pinned = TestDoubleIntegral.doubles(got["level"])
    assert got["doubles"] == {str(q): h for q, h in pinned.items()}
    assert got["series"] == json.loads(SERIES_GOLDEN.read_text())
    assert got["integral"] == [2.4041138063191885, 1.057879959255969]
    assert got["halflog3"] == 3.2469697011334144
