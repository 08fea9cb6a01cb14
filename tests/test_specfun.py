"""Polylogarithms: brute-force series, finite differences and closed forms
serve as oracles for the fast evaluation paths."""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from eulersum import eulersums, specfun
from eulersum.cli import main
from eulersum.constants import zeta
from eulersum.exactmath import harmonic_exact
from eulersum.specfun import (
    POLYLOG_ABS_ERROR,
    PolylogEval,
    dilog_neg_ratio,
    harmonic_float,
    polylog,
    polylog_array,
    polylog_eval,
    polylog_one_minus,
)

EPS = np.finfo(float).eps


def brute_force_series(s: int, x: float, n_terms: int = 4000) -> float:
    """Raw partial sum of x^n/n^s; only usable away from |x| = 1."""
    return math.fsum(x**n / float(n) ** s for n in range(1, n_terms + 1))


class TestPolylogValues:
    def test_order_zero_closed_form(self):
        assert polylog(0, 0.5) == 1.0
        assert polylog(0, -1.0) == -0.5

    def test_order_one_closed_form(self):
        assert abs(polylog(1, 0.5) - math.log(2.0)) <= 1e-16
        assert abs(polylog(1, -1.0) + math.log(2.0)) <= 1e-16

    def test_unit_argument_is_zeta(self):
        for s in (2, 3, 6):
            assert polylog(s, 1.0) == zeta(s)

    def test_minus_one_is_minus_eta(self):
        # Li_s(-1) = -(1 - 2^(1-s)) zeta(s); at s = 2 this is -pi^2/12
        assert abs(polylog(2, -1.0) + 0.8224670334241132) <= 1e-15
        assert abs(polylog(2, -1.0) + math.pi**2 / 12.0) <= 2e-15
        for s in (3, 4, 5):
            assert abs(polylog(s, -1.0) + (1.0 - 2.0 ** (1 - s)) * zeta(s)) <= 1e-15

    @pytest.mark.parametrize("s", [2, 3, 4, 6])
    @pytest.mark.parametrize("x", [0.9, 0.75, 0.51, 0.5, 0.3, -0.3, -0.51, -0.75, -0.9])
    def test_against_brute_force_series(self, s, x):
        # 4000 raw terms give ~1e-19 truncation at |x| = 0.9; this checks the
        # log-expansion and argument-squaring branches against the plain
        # definition.
        assert abs(polylog(s, x) - brute_force_series(s, x)) <= POLYLOG_ABS_ERROR


class TestHighOrder:
    @pytest.mark.parametrize("x", [0.51, 0.75, 0.9, 0.999999, -0.51, -0.75, -0.9, -0.999999])
    def test_orders_172_to_200_against_mpmath(self, x):
        # Both sides of x = +-1/2 and near +-1, at orders where Li_s(x)
        # is returned as x.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for s in range(172, 201):
            reference = float(mpmath.polylog(s, mpmath.mpf(x)))
            assert abs(polylog(s, x) - reference) <= POLYLOG_ABS_ERROR, s


class TestTaylorOnlyOrders:
    """From s = 64 on Li_s(x) is x to the last bit on all of [-1, 1], and
    Li_s(1 - t) is 1 - t, so the cost does not grow with the order."""

    X = [1e-300, 0.3, 0.5, 0.51, 0.75, 0.9, 0.999999, 1.0 - 2.0**-40,
         -0.3, -0.51, -0.75, -0.9, -0.999999, -1.0 + 2.0**-40]
    T = [1e-12, 1e-3, 0.1, 0.3, float(np.nextafter(0.5, 0.0)), 0.5, 0.9, 1.0]

    @pytest.mark.parametrize("s", [63, 64, 65, 200])
    def test_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in self.X:
                reference = float(mpmath.polylog(s, mpmath.mpf(x)))
                assert abs(polylog(s, x) - reference) <= POLYLOG_ABS_ERROR, x
            array = polylog_array(s, np.array(self.X))
            for x, value in zip(self.X, array.tolist()):
                reference = float(mpmath.polylog(s, mpmath.mpf(x)))
                assert abs(value - reference) <= POLYLOG_ABS_ERROR, x
            ones = polylog_one_minus(s, np.array(self.T))
            for t, value in zip(self.T, ones.tolist()):
                reference = float(mpmath.polylog(s, 1 - mpmath.mpf(t)))
                assert abs(polylog_one_minus(s, t) - reference) <= POLYLOG_ABS_ERROR, t
                assert abs(value - reference) <= POLYLOG_ABS_ERROR, t

    def test_orders_6_to_70_within_four_ulps(self):
        # Up to and past the switch every value is within a few roundings of
        # the truth; a switch at a low order would return x where Li_s(x)
        # differs from it near x = +-1.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for s in range(6, 71):
                for x in (0.51, 0.75, 0.9, 0.999999, -0.51, -0.75, -0.9, -0.999999):
                    reference = float(mpmath.polylog(s, mpmath.mpf(x)))
                    ulps = abs(polylog(s, x) - reference) / np.spacing(abs(reference))
                    assert ulps <= 4.0, (s, x)

    @pytest.mark.parametrize("s", [10**6, 10**12, pytest.param(10**400, id="10**400")])
    def test_huge_orders_are_fast(self, s):
        calls = [
            (lambda: [polylog(s, x) for x in (0.9, -0.9, 0.3, 1.0, -1.0)],
             [0.9, -0.9, 0.3, 1.0, -1.0]),
            (lambda: polylog_array(s, np.array([0.9, -0.9, 0.3, 1.0])).tolist(),
             [0.9, -0.9, 0.3, 1.0]),
            (lambda: [polylog_one_minus(s, t) for t in (0.1, 1e-300, 0.0, 0.75)],
             [0.9, 1.0, 1.0, 0.25]),
            (lambda: polylog_one_minus(s, np.array([0.1, 1e-300, 0.0])).tolist(),
             [0.9, 1.0, 1.0]),
        ]
        for call, expected in calls:
            start = time.perf_counter()
            assert call() == expected
            assert time.perf_counter() - start < 1.0
        # The array result is a copy: writing to it leaves the argument as it was.
        x = np.array([0.9, -0.9])
        assert not np.shares_memory(polylog_array(s, x), x)


def branch_grid() -> np.ndarray:
    """Points through +-1/2 and +-1 and on both sides of every branch switch."""
    edges = [-1.0, -0.5, 0.0, 0.5, 1.0]
    near = [np.nextafter(e, d) for e in edges for d in (-2.0, 2.0)]
    points = np.concatenate([np.linspace(-1.0, 1.0, 201), edges, near, [1e-300, -1e-300]])
    return points[np.abs(points) <= 1.0]


def watch_kernels(monkeypatch, evaluate):
    """Run evaluate() and return, per kernel name, every point handed to it
    as one flat array: x for _taylor, u = -log(1-x) for _dilog, z for
    _log_expansion and t for _dilog_one_minus. The kernels are restored
    after."""
    seen = {name: [np.empty(0)] for name in
            ("_taylor", "_log_expansion", "_dilog", "_dilog_one_minus")}
    for name in seen:
        def watched(*args, real=getattr(specfun, name), points=seen[name]):
            points.append(np.ravel(args[-1]))
            return real(*args)

        monkeypatch.setattr(specfun, name, watched)
    evaluate()
    monkeypatch.undo()
    return {name: np.concatenate(points) for name, points in seen.items()}


class TestPolylogArray:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 10, 60])
    def test_matches_scalar_polylog(self, s):
        x = branch_grid()
        if s < 2:
            x = x[x < 1.0]
        values = polylog_array(s, x)
        assert values.shape == x.shape
        for xi, vi in zip(x.tolist(), values.tolist()):
            reference = polylog(s, xi)
            # Same kernels; numpy's log may round differently by an ulp.
            assert abs(vi - reference) <= 4.0 * EPS * max(1.0, abs(reference)), xi

    @pytest.mark.parametrize("s", [0, 1, 2, 63, 64, 70])
    @pytest.mark.parametrize("x", [0.3, np.array(0.3)], ids=["float", "0-d"])
    def test_zero_dimensional_argument_gives_an_array(self, s, x):
        # Every order returns a 0-d array, the closed forms and the
        # Taylor-only orders as well as the piecewise ones.
        value = polylog_array(s, x)
        assert isinstance(value, np.ndarray) and value.shape == ()
        assert value == polylog(s, 0.3)

    @pytest.mark.parametrize("s", [2, 3, 10])
    def test_each_branch_sees_only_its_own_points(self, s, monkeypatch):
        # Li_2: the Bernoulli series serves |x| <= 1/2 and the reflection
        # t = 1 - |x| in (0, 1/2); the Taylor and log kernels get no call.
        # Higher orders: the Taylor series serves |x| <= 1/2 and the
        # expansion about x = 1 serves z = log|x| in (-log 2, 0).
        # x = +-1 reaches no kernel.
        x = branch_grid()
        assert np.isin([-1.0, -0.5, 0.5, 1.0], x).all()
        near_one = x[(0.5 < np.abs(x)) & (np.abs(x) < 1.0)]
        # u = -log(1-x) as the path computes it: numpy's log1p for the
        # array, math's for a float; the two may round an ulp apart.
        for evaluate, log1p in ((lambda: polylog_array(s, x), np.log1p),
                                (lambda: [polylog(s, p) for p in x.tolist()],
                                 np.vectorize(math.log1p))):
            seen = watch_kernels(monkeypatch, evaluate)
            if s == 2:
                series, reflected = seen["_dilog"], seen["_dilog_one_minus"]
                assert seen["_taylor"].size == seen["_log_expansion"].size == 0
                # u of [-1/2, 1/2]: -log(3/2) <= u <= log 2, by the path's log1p.
                low, high = -log1p(np.array(0.5)), -log1p(np.array(-0.5))
                assert ((low <= series) & (series <= high)).all()
                assert ((0.0 < reflected) & (reflected < 0.5)).all()
                # Every point reaches its own branch.
                assert np.isin(-log1p(-x[np.abs(x) <= 0.5]), series).all()
                assert np.isin(1.0 - np.abs(near_one), reflected).all()
                continue
            taylor_points, log_points = seen["_taylor"], seen["_log_expansion"]
            assert seen["_dilog"].size == seen["_dilog_one_minus"].size == 0
            assert (np.abs(taylor_points) <= 0.5).all()
            assert ((-math.log(2.0) < log_points) & (log_points < 0.0)).all()
            # Every point reaches its own branch.
            assert np.isin(x[np.abs(x) <= 0.5], taylor_points).all()
            assert np.isin(np.log(np.abs(near_one)), log_points).all()

    @pytest.mark.parametrize("s", [2, 3, 10])
    def test_one_minus_each_branch_sees_only_its_own_points(self, s, monkeypatch):
        # Li_2: the Bernoulli series at 1 - t for t >= 1/2 and the
        # reflection at 0 < t < 1/2, whose own series call takes the
        # u = -log(1-t) it computed. Higher orders: Taylor at 1 - t for
        # t >= 1/2 and the expansion about x = 1 at z = log1p(-t) for
        # 0 < t < 1/2. t = 0 reaches no kernel.
        t = np.array([0.0, 1e-300, 0.25, np.nextafter(0.5, 0.0), 0.5,
                      np.nextafter(0.5, 1.0), 0.75, 1.0])
        at_x, near_one = 1.0 - t[t >= 0.5], t[(0.0 < t) & (t < 0.5)]
        for evaluate, log1p in ((lambda: polylog_one_minus(s, t), np.log1p),
                                (lambda: [polylog_one_minus(s, p) for p in t.tolist()],
                                 np.vectorize(math.log1p))):
            seen = watch_kernels(monkeypatch, evaluate)
            if s == 2:
                assert seen["_taylor"].size == seen["_log_expansion"].size == 0
                series = -log1p(-np.concatenate([at_x, near_one]))
                assert sorted(seen["_dilog"].tolist()) == sorted(series.tolist())
                assert sorted(seen["_dilog_one_minus"].tolist()) == sorted(near_one)
                continue
            taylor_points, log_points = seen["_taylor"], seen["_log_expansion"]
            assert seen["_dilog"].size == seen["_dilog_one_minus"].size == 0
            assert (taylor_points <= 0.5).all()
            assert ((-math.log(2.0) < log_points) & (log_points < 0.0)).all()
            assert sorted(taylor_points.tolist()) == sorted(at_x.tolist())
            assert sorted(log_points.tolist()) == sorted(np.log1p(-near_one).tolist())

    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    def test_one_minus_matches_scalar(self, s):
        t = np.array([1e-300, 1e-12, 1e-3, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0])
        values = polylog_one_minus(s, t)
        for ti, vi in zip(t.tolist(), values.tolist()):
            reference = polylog_one_minus(s, ti)
            assert abs(vi - reference) <= 4.0 * EPS * max(1.0, abs(reference)), ti

    @pytest.mark.parametrize("t", [[1e-300, 0.25, 0.49], [0.5, 0.75, 1.0]])
    def test_one_minus_single_branch_arrays(self, t):
        values = polylog_one_minus(3, np.array(t))
        for ti, vi in zip(t, values.tolist()):
            reference = polylog_one_minus(3, ti)
            assert abs(vi - reference) <= 4.0 * EPS * max(1.0, abs(reference)), ti

    def test_dilog_neg_ratio_matches_scalar(self):
        u = np.array([1e-200, 1e-6, 0.3, 0.5, 0.51, 0.9, 1.0])
        values = dilog_neg_ratio(u)
        for ui, vi in zip(u.tolist(), values.tolist()):
            reference = dilog_neg_ratio(ui)
            assert abs(vi - reference) <= 4.0 * EPS * max(1.0, abs(reference)), ui

    def test_domain(self):
        for bad in ([0.5, 1.5], [math.nan], [-1.0000001]):
            with pytest.raises(ValueError):
                polylog_array(2, np.array(bad))
        for s in (0, 1):
            with pytest.raises(ValueError):
                polylog_array(s, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            polylog_array(2.0, np.array([0.5]))  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            polylog_one_minus(2, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            polylog_one_minus(1, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            dilog_neg_ratio(np.array([0.0, 0.5]))

    def test_complex_arguments_are_an_error(self):
        # A float cast would evaluate at the real part, Li_s(0.5).
        z = np.array([0.5 + 1j])
        with pytest.raises(ValueError, match="^polylog_array requires real x"):
            polylog_array(2, z)
        with pytest.raises(ValueError, match="^polylog_array requires real x"):
            polylog_array(2, [0.5, 0.5 + 1j])
        with pytest.raises(ValueError, match="^polylog_one_minus requires real t"):
            polylog_one_minus(2, z)
        with pytest.raises(ValueError, match="^dilog_neg_ratio requires real u"):
            dilog_neg_ratio(z)


class TestDilogAgainstMpmath:
    """Li_2 from its Bernoulli series and its reflection: every entry point,
    as a float and as an array, within 5 ulps of mpmath at 40 digits."""

    X = branch_grid()
    T = np.concatenate([[0.0], np.logspace(-300, 0, 301), X[X > 0.0]])

    @staticmethod
    def assert_within_5_ulps(scalar, array, points, reference):
        mpmath = pytest.importorskip("mpmath")
        values = zip(points.tolist(), map(scalar, points.tolist()), array(points).tolist())
        with mpmath.workdps(40):
            for p, value, array_value in values:
                exact = reference(mpmath, mpmath.mpf(p))
                bound = 5.0 * math.ulp(float(exact))
                assert float(abs(value - exact)) <= bound, p
                assert float(abs(array_value - exact)) <= bound, p

    def test_polylog(self):
        self.assert_within_5_ulps(partial(polylog, 2), partial(polylog_array, 2), self.X,
                                  lambda mp, x: mp.polylog(2, x))

    def test_polylog_one_minus(self):
        li2_one_minus = partial(polylog_one_minus, 2)
        self.assert_within_5_ulps(li2_one_minus, li2_one_minus, self.T,
                                  lambda mp, t: mp.polylog(2, 1 - t))

    def test_dilog_neg_ratio(self):
        self.assert_within_5_ulps(dilog_neg_ratio, dilog_neg_ratio, self.T[self.T > 0.0],
                                  lambda mp, u: mp.polylog(2, -(1 - u) / u))


class TestPolylogInvariants:
    def test_derivative_relation(self):
        # x * d/dx Li_s(x) = Li_{s-1}(x), checked by central differences
        step = 1e-6
        for s in (1, 2, 3, 4):
            for x in (0.05, 0.2, 0.45, 0.55, 0.8, 0.95):
                deriv = (polylog(s, x + step) - polylog(s, x - step)) / (2.0 * step)
                lower = polylog(s - 1, x)
                assert abs(x * deriv - lower) <= 1e-6 * max(1.0, abs(lower))

    def test_strictly_decreasing_in_order(self):
        for x in (0.1, 0.5, 0.9):
            for s in (1, 2, 3, 4):
                assert polylog(s, x) < polylog(s - 1, x)

    def test_dominated_by_order_zero(self):
        for x in (0.05, 0.3, 0.6, 0.95):
            for s in (1, 2, 5):
                value = polylog(s, x)
                assert 0.0 < value <= x / (1.0 - x)

    def test_order_one_log_consistency(self):
        # dyadic grid keeps 1 - x exact, so math.log(1 - x) is a fair oracle
        for k in range(-256, 254):
            x = k / 256.0
            assert abs(polylog(1, x) + math.log(1.0 - x)) <= 1e-15

    def test_landen_two_path_agreement(self):
        # On [0.51, 1) the raw argument -(1-u)/u lies in (-1, 0] and the
        # direct polylog is an independent route to dilog_neg_ratio.
        worst = 0.0
        for i in range(1000):
            u = 0.51 + (0.999 - 0.51) * i / 999.0
            direct = polylog(2, -(1.0 - u) / u)
            worst = max(worst, abs(direct - dilog_neg_ratio(u)))
        assert worst <= 1e-12


class TestPolylogDomain:
    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            polylog(2, 1.0000001)
        with pytest.raises(ValueError):
            polylog(2, -1.5)

    @pytest.mark.parametrize("x", [np.complex128(0.5 + 1j), 0.5 + 1j, np.complex64(0.5)],
                             ids=["numpy", "python", "zero-imaginary"])
    def test_rejects_complex(self, x):
        # A complex number is not in [-1, 1], even with a zero imaginary part.
        with pytest.raises(ValueError, match="^polylog requires real x"):
            polylog(2, x)

    def test_divergent_at_one_for_low_order(self):
        with pytest.raises(ValueError):
            polylog(1, 1.0)
        with pytest.raises(ValueError):
            polylog(0, 1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            polylog(-1, 0.5)
        with pytest.raises(ValueError):
            polylog(2.0, 0.5)  # type: ignore[arg-type]


class TestPolylogNearOne:
    def test_endpoint_is_zeta(self):
        assert polylog_one_minus(2, 0.0) == zeta(2)
        assert polylog_one_minus(5, 0.0) == zeta(5)

    def test_matches_polylog_where_both_work(self):
        for s in (2, 3, 4):
            for t in (0.4999, 0.25, 1e-3, 1e-8):
                assert abs(polylog_one_minus(s, t) - polylog(s, 1.0 - t)) <= 1e-14

    def test_leading_behaviour_at_tiny_t(self):
        # Li_2(1-t) = zeta(2) + t (log t - 1) + O(t^2 log t)
        t = 1e-8
        lead = zeta(2) + t * (math.log(t) - 1.0)
        assert abs(polylog_one_minus(2, t) - lead) <= 5e-15

    def test_representability_floor(self):
        # t far below the double-spacing of 1: the dedicated path keeps
        # full information where polylog(s, 1 - t) would collapse to x = 1.
        value = polylog_one_minus(2, 1e-300)
        assert math.isfinite(value)
        assert abs(value - zeta(2)) < 1e-12

    def test_order_one_is_minus_log(self):
        assert polylog_one_minus(1, 0.25) == -math.log(0.25)
        with pytest.raises(ValueError):
            polylog_one_minus(1, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog_one_minus(2, -0.1)
        with pytest.raises(ValueError):
            polylog_one_minus(2, 1.1)
        with pytest.raises(ValueError):
            polylog_one_minus(0, 0.0)  # diverges like 1/t

    @pytest.mark.parametrize("s", [0, 1])
    def test_divergence_names_this_function(self, s):
        # A float and an array give the same message, naming this call.
        for t in (0.0, np.array([0.5, 0.0])):
            message = rf"^polylog_one_minus\({s}, 0\) diverges$"
            with pytest.raises(ValueError, match=message):
                polylog_one_minus(s, t)

    def test_order_zero_overflow_is_a_domain_error(self):
        # (1 - t)/t exceeds the largest double for t below about 5.6e-309.
        assert polylog_one_minus(0, 1e-300) == (1.0 - 1e-300) / 1e-300
        assert polylog_one_minus(0, 2.0**-1022) == 2.0**1022
        for bad in (1e-320, 5e-324):
            with pytest.raises(ValueError, match="overflows"):
                polylog_one_minus(0, bad)
            with pytest.raises(ValueError, match="overflows"):
                polylog_one_minus(0, np.array([0.5, bad]))

    def test_order_zero_accepts_exactly_the_finite_quotients(self):
        # 1/t overflows at t = 2^-1024: the next double up is the least t
        # accepted, as a float and in an array, and its predecessor the
        # greatest refused.
        least = float.fromhex("0x0.4000000000001p-1022")
        below = math.nextafter(least, 0.0)
        assert below == 2.0**-1024 and (1.0 - below) / below == math.inf
        assert polylog_one_minus(0, least) == 1.7976931348623143e308
        array = polylog_one_minus(0, np.array([0.5, least]))
        assert array.tolist() == [1.0, 1.7976931348623143e308]
        message = r"^polylog_one_minus\(0, t\) overflows for t < 5\.6e-309$"
        for t in (below, np.array([0.5, below])):
            with pytest.raises(ValueError, match=message):
                polylog_one_minus(0, t)

    def test_order_zero_float_is_read_without_numpy(self, monkeypatch):
        monkeypatch.setattr(specfun, "np", None)
        assert polylog_one_minus(0, 0.25) == 3.0


class TestDilogNegRatio:
    def test_endpoint_u_one(self):
        assert dilog_neg_ratio(1.0) == 0.0

    def test_half_is_dilog_minus_one(self):
        assert abs(dilog_neg_ratio(0.5) + 0.8224670334241132) <= 1e-15
        rhs = -0.5 * math.log(0.5) ** 2 - polylog(2, 0.5)
        assert abs(dilog_neg_ratio(0.5) - rhs) <= 1e-16

    def test_domain(self):
        with pytest.raises(ValueError):
            dilog_neg_ratio(0.0)
        with pytest.raises(ValueError):
            dilog_neg_ratio(-0.2)
        with pytest.raises(ValueError):
            dilog_neg_ratio(1.2)

    @pytest.mark.parametrize("u", [np.complex128(0.5 + 1j), 0.5 + 1j], ids=["numpy", "python"])
    def test_rejects_complex_scalars(self, u):
        with pytest.raises(ValueError, match="^dilog_neg_ratio requires real u"):
            dilog_neg_ratio(u)
        with pytest.raises(ValueError, match="^polylog_one_minus requires real t"):
            polylog_one_minus(2, u)


# The four Li_s entry points, each with an order where it takes one.
ENTRY_POINTS = {
    "polylog": partial(polylog, 2),
    "polylog_array": partial(polylog_array, 2),
    "polylog_one_minus": partial(polylog_one_minus, 2),
    "dilog_neg_ratio": dilog_neg_ratio,
}


class TestRealArgumentRule:
    """One rule reads the argument of every Li_s entry point: a scalar
    becomes a Python float, an array a float array, and every error names
    the function called."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "z", [0.5 + 1j, np.complex64(0.5), np.array(0.5 + 1j), np.array(0.5 + 0j),
              [[0.5], [0.5j]]],
        ids=["python", "numpy", "0-d", "0-d-zero-imaginary", "2-d-list"])
    def test_complex_is_an_error(self, name, z):
        with pytest.raises(ValueError, match=f"^{name} requires real [xtu], got complex"):
            ENTRY_POINTS[name](z)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("text", ["0.5", np.array("0.5"), ["0.5"]],
                             ids=["str", "0-d", "list"])
    def test_str_is_rejected(self, name, text):
        # float("0.5") and np.asarray("0.5", dtype=float) would read it.
        with pytest.raises(ValueError, match=f"^{name} requires real [xtu], got <U3$"):
            ENTRY_POINTS[name](text)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad", [math.nan, 1.5, -1.5, np.float64(1.5), np.array(math.nan),
                np.array([0.5, 1.5, math.nan])],
        ids=["nan", "above", "below", "numpy", "0-d-nan", "array"])
    def test_outside_the_domain_is_an_error(self, name, bad):
        # An array's message quotes its first point outside the domain.
        with pytest.raises(ValueError, match=f"^{name} requires [xtu] in .*, got (nan|1.5|-1.5)$"):
            ENTRY_POINTS[name](bad)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "x, big", [(2**70, 2**70), (-(2**70), -(2**70)), (10**400, 10**400),
                   ([2**70], 2**70), ([0.5, 10**400], 10**400), ([[2**70]], 2**70),
                   ([True, 2**70], 2**70)],
        ids=["2**70", "-2**70", "10**400", "list", "list-after-a-float", "nested-list",
             "list-after-a-bool"])
    def test_python_int_beyond_int64_is_a_domain_error(self, name, x, big):
        # numpy reads such an int as an object, not as a number outside
        # the domain, and a list holding one as an object array; its
        # points are tested as written and the first one outside is quoted.
        with pytest.raises(ValueError, match=f"^{name} requires [xtu] in .*, got {big}$"):
            ENTRY_POINTS[name](x)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_an_object_array_of_anything_else_is_not_real(self, name):
        with pytest.raises(ValueError, match=f"^{name} requires real [xtu], got object$"):
            ENTRY_POINTS[name](["0.5", 2**70])

    @pytest.mark.parametrize("name", ["polylog_array", "polylog_one_minus"])
    def test_order_errors_name_the_function(self, name):
        f = getattr(specfun, name)
        with pytest.raises(ValueError, match=f"^{name} requires an integer order s, got 2.0$"):
            f(2.0, np.array([0.5]))  # type: ignore[arg-type]
        with pytest.raises(ValueError, match=f"^{name} requires order s >= 0, got -1$"):
            f(-1, 0.5)

    def test_polylog_array_names_itself_at_divergence(self):
        for x in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(ValueError, match=r"^polylog_array\(s=1, x=1\) diverges$"):
                polylog_array(1, x)

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 7, 20, 64])
    def test_polylog_of_an_array_is_polylog_array(self, s):
        x = branch_grid()
        x = x[x < 1.0] if s < 2 else x
        for points in (x, x[:200].reshape(10, 20)):
            value = polylog(s, points)
            assert isinstance(value, np.ndarray) and value.shape == points.shape
            assert value.tobytes() == polylog_array(s, points).tobytes()

    @pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.float32(0.25), np.array(0.3), 1],
                             ids=["float", "float64", "float32", "0-d", "int"])
    def test_a_scalar_gives_a_python_float(self, x):
        for f in (partial(polylog, 2), partial(polylog_one_minus, 2), dilog_neg_ratio):
            value = f(x)
            assert type(value) is float
            assert value == f(float(x))
        assert polylog_array(2, x).shape == ()
        assert polylog_array(2, x) == polylog(2, float(x))

    def test_a_float_is_read_without_numpy(self, monkeypatch):
        monkeypatch.setattr(specfun, "np", None)
        x = 0.3
        assert specfun._real("f", "x", x, lambda x: (0.0 <= x) & (x <= 1.0), "[0, 1]") is x


class TestHarmonicFloat:
    def test_small_values(self):
        assert harmonic_float(1) == 1.0
        assert abs(harmonic_float(3) - 1.8333333333333333) <= 1e-16

    def test_against_exact_rational(self):
        exact = Fraction(*harmonic_exact(100, 1))
        assert abs(harmonic_float(100) - float(exact)) <= 1e-13

    def test_asymptotic_branch_continuity(self):
        # reference by compensated summation just above the switch point
        n = 1_200_000
        reference = math.fsum(1.0 / k for k in range(1, n + 1))
        assert abs(harmonic_float(n) - reference) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic_float(0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, None, "3"])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="harmonic_float requires an integer n"):
            harmonic_float(n)


class TestPolylogEval:
    def test_wrapper_fields(self):
        result = polylog_eval(2, 0.5)
        assert isinstance(result, PolylogEval)
        assert result.order == 2
        assert result.argument == 0.5
        assert result.value == polylog(2, 0.5)
        assert result.abs_error_bound == POLYLOG_ABS_ERROR


def float_horner(coeffs, x: float) -> float:
    """Horner's rule on one Python float, the reference for _horner's array
    path: the same multiply and add per coefficient, without numpy."""
    acc = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * x + c
    return acc


class TestHornerArrayPath:
    """The array path adds the same float coefficients in place; every
    double it returns is that of the Python-float loop on the same point."""

    ORDERS = [*range(2, 12), 63]

    @pytest.mark.parametrize("size", [1, 27, 1000])
    @pytest.mark.parametrize("s", ORDERS)
    def test_bit_identical_to_float_loop(self, s, size):
        rng = np.random.default_rng(1000 * s + size)
        tables = [
            (specfun._taylor_coeffs(s), rng.uniform(-0.5, 0.5, size)),
            (specfun._log_expansion_coeffs(s)[0], rng.uniform(-math.log(2.0), 0.0, size)),
        ]
        for coeffs, x in tables:
            values = specfun._horner(coeffs, x)
            assert type(values) is np.ndarray and values.shape == x.shape
            assert values.tolist() == [float_horner(coeffs, p) for p in x.tolist()]

    def test_every_table_has_two_terms(self):
        # _horner has no one-term case: every table it reads opens with
        # coeffs[0] * x + coeffs[1]. Orders from 64 on build no table.
        tables = [specfun._dilog_coeffs(), *eulersums._TAIL_POLYNOMIALS]
        for s in range(3, 64):
            tables += [specfun._taylor_coeffs(s), specfun._log_expansion_coeffs(s)[0]]
        assert all(type(t) is tuple and len(t) >= 2 for t in tables)
        assert all(type(c) is float for t in tables for c in t)
        assert specfun._taylor_coeffs(57) == (2.0**-57, 1.0)
        built = specfun._taylor_coeffs.cache_info().currsize
        polylog(100, np.array([0.3, 0.9, -0.9]))
        polylog_one_minus(100, 0.3)
        assert specfun._taylor_coeffs.cache_info().currsize == built

    def test_scalar_paths_return_python_floats(self):
        # Taylor, log expansion, argument squaring; then t < 1/2 and t >= 1/2.
        for s in (2, 3, 11, 63):
            for x in (0.3, 0.9, -0.9):
                assert type(polylog(s, x)) is float
            for t in (1e-3, 0.3, 0.7):
                assert type(polylog_one_minus(s, t)) is float

    def test_zero_dimensional_arrays_take_the_float_path(self):
        # A 0-d array is a scalar: the same double, as a Python float.
        for s, x in ((2, 0.3), (3, 0.9), (2, -0.9), (70, 0.7)):
            assert type(polylog(s, np.array(x))) is float
            assert polylog(s, np.array(x)) == polylog(s, x)
        for s, t in ((0, 0.3), (1, 0.7), (2, 0.3), (2, 0.7), (70, 0.3)):
            assert type(polylog_one_minus(s, np.array(t))) is float
            assert polylog_one_minus(s, np.array(t)) == polylog_one_minus(s, t)
        assert type(dilog_neg_ratio(np.array(0.3))) is float

    def test_eval_prints_the_same_double(self, capsys):
        # Li_2(1/2) = pi^2/12 - log(2)^2/2, correctly rounded.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            assert float(mpmath.polylog(2, 0.5)) == 0.5822405264650125
        assert main(["eval", "polylog", "2", "0.5"]) == 0
        assert capsys.readouterr().out == "0.5822405264650125\n"
