"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines on a green run (pytest swallows stdout of passing tests otherwise).
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import numpy as np

from eulersum.constants import zeta
from eulersum.eulersums import (
    EulerSumSpec,
    inner_integral,
    inner_integral_quadrature,
    quadratic_sum_double_integral,
    quadratic_sum_q2_via_outer,
    sum_gp_closed_form,
    sum_series,
    sum_via_integral,
)
from eulersum.exactmath import alt_binomial_sum, harmonic_exact, moment_integral_exact
from eulersum.quad import integrate
from eulersum.specfun import dilog_neg_ratio, polylog


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_exact_binomial_identity():
    start = time.perf_counter()
    mismatches = [
        (n, p)
        for n in range(1, 13)
        for p in range(1, 5)
        if factorial(p) * Fraction(*alt_binomial_sum(n, p))
        != Fraction(*moment_integral_exact(n, p))
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    report(
        1,
        ok,
        f"exact moment identity on 48 (n, p) pairs, zero tolerance, "
        f"{elapsed * 1e3:.0f} ms (mismatches: {mismatches!r})",
    )


def test_criterion_02_p1_specialization():
    start = time.perf_counter()
    mismatches = [
        n
        for n in range(1, 61)
        if Fraction(*alt_binomial_sum(n, 1)) != -Fraction(*harmonic_exact(n, 1))
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    report(
        2,
        ok,
        f"alternating sum equals -H_n exactly for n <= 60, "
        f"{elapsed * 1e3:.0f} ms (mismatches: {mismatches!r})",
    )


def test_criterion_03_euler_two_zeta3_three_paths():
    target = 2.0 * zeta(3)
    assert abs(target - 2.404113806319188) < 1e-14
    series = sum_series(EulerSumSpec(1, 2))
    integral = sum_via_integral(2)
    quadrature = integrate(lambda t: np.log(t) ** 2 / (1.0 - t), 1e-12).value
    residuals = {
        "series": abs(series - target),
        "integral": abs(integral - target),
        "quadrature": abs(quadrature - target),
    }
    ok = all(r <= 1e-10 for r in residuals.values())
    report(3, ok, f"sum H_n/n^2 = 2 zeta(3); residuals {residuals}")


def test_criterion_04_half_zeta2_squared_two_paths():
    target = 0.5 * zeta(2) ** 2
    assert abs(target - 1.352904042138923) < 1e-14
    series = sum_series(EulerSumSpec(1, 3))
    integral = sum_via_integral(3)
    residuals = {
        "series": abs(series - target),
        "integral": abs(integral - target),
    }
    ok = all(r <= 1e-10 for r in residuals.values())
    report(4, ok, f"sum H_n/n^3 = zeta(2)^2/2; residuals {residuals}")


def test_criterion_05_odd_exponent_closed_forms():
    closed_residuals = {
        p: abs(sum_gp_closed_form(p) - sum_series(EulerSumSpec(1, 2 * p + 1)))
        for p in (1, 2, 3)
    }
    # The integral side: -int_0^1 Li_{2p}(1-t) log t/(1-t) dt, which is what
    # sum_via_integral evaluates, equals the zeta combination.
    integral_residuals = {
        p: abs(sum_via_integral(2 * p + 1, tol=1e-10) - sum_gp_closed_form(p))
        for p in (1, 2)
    }
    ok = all(r <= 1e-10 for r in closed_residuals.values()) and all(
        r <= 1e-9 for r in integral_residuals.values()
    )
    report(
        5,
        ok,
        f"zeta combination vs series {closed_residuals}, "
        f"vs deduced integral {integral_residuals}",
    )


def test_criterion_06_dedoelder_three_paths():
    target = 17.0 / 4.0 * zeta(4)
    series = sum_series(EulerSumSpec(2, 2))
    outer = quadratic_sum_q2_via_outer()
    start = time.perf_counter()
    two_d = quadratic_sum_double_integral(2)
    elapsed_2d = time.perf_counter() - start
    residuals = {
        "series": abs(series - target),
        "outer": abs(outer.value - target),
        "2d": abs(two_d.value - target),
    }
    ok = (
        outer.converged
        and two_d.converged
        and residuals["series"] <= 1e-10
        and residuals["outer"] <= 1e-10
        and residuals["2d"] <= 1e-8
        and elapsed_2d < 30.0
    )
    report(
        6,
        ok,
        f"sum [H_n]^2/n^2 = 17/4 zeta(4); residuals {residuals}, "
        f"2-D run {elapsed_2d:.1f} s",
    )


def test_criterion_07_landen_identity_grid():
    worst = 0.0
    for i in range(1000):
        u = 0.51 + (0.999 - 0.51) * i / 999.0
        direct = polylog(2, -(1.0 - u) / u)
        via_transform = -0.5 * math.log(u) ** 2 - polylog(2, 1.0 - u)
        worst = max(worst, abs(direct - via_transform))
        worst = max(worst, abs(direct - dilog_neg_ratio(u)))
    ok = worst <= 1e-12
    report(7, ok, f"dilogarithm transformation, 1000-point grid, worst {worst:.2e}")


def test_criterion_08_inner_integral_closed_form():
    residuals = {}
    for u in (0.1, 0.3, 0.5, 0.7, 0.9):
        quad = inner_integral_quadrature(u)
        residuals[u] = abs(inner_integral(u) - quad.value)
    ok = all(r <= 1e-10 for r in residuals.values())
    report(8, ok, f"inner integral closed form vs quadrature: {residuals}")


def test_criterion_09_reference_integrals_and_estimate_honesty():
    log2_result = integrate(lambda t: np.log(t) ** 2 / (1.0 - t), 1e-12)
    log3_result = integrate(lambda u: np.log(u) ** 3 / (1.0 - u), 1e-12)
    res_log2 = abs(log2_result.value - 2.0 * zeta(3))
    res_log3 = abs(log3_result.value - (-6.493939402266829))

    battery = [
        (lambda t: 1.0, 1.0),
        (np.log, -1.0),
        (lambda t: np.log(t) ** 2 / (1.0 - t), 2.0 * zeta(3)),
        (lambda u: np.log(u) ** 3 / (1.0 - u), -6.0 * zeta(4)),
    ] + [(lambda t, k=k: t**k, 1.0 / (k + 1)) for k in range(1, 6)]
    honest = True
    worst_ratio = 0.0
    for f, exact in battery:
        r = integrate(f, 1e-12)
        honest &= r.converged and abs(r.value - exact) <= 10.0 * r.abs_error_estimate
        if r.abs_error_estimate > 0:
            worst_ratio = max(worst_ratio, abs(r.value - exact) / r.abs_error_estimate)

    ok = res_log2 <= 1e-11 and res_log3 <= 1e-11 and honest
    report(
        9,
        ok,
        f"log^2 residual {res_log2:.2e}, log^3 residual {res_log3:.2e}, "
        f"worst (true error)/(estimate) ratio {worst_ratio:.2f}",
    )


def test_criterion_10_open_case_consistency():
    two_d = quadratic_sum_double_integral(3)
    series = sum_series(EulerSumSpec(2, 3))
    residual = abs(two_d.value - series)
    ok = two_d.converged and residual <= 1e-6
    report(10, ok, f"q=3 double integral vs series, residual {residual:.2e}")


def test_criterion_11_cli_end_to_end():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "eulersum", "verify", "--output", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    payload = json.loads(proc.stdout)
    clean_run_ok = (
        proc.returncode == 0
        and payload["summary"]["failed"] == 0
        and payload["summary"]["errored"] == 0
        and elapsed <= 60.0
    )

    inject = subprocess.run(
        [
            sys.executable, "-m", "eulersum", "verify",
            "--filter", "euler-q2",
            "--inject-failure", "euler-q2-series",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    ok = clean_run_ok and inject.returncode == 1
    report(
        11,
        ok,
        f"verify exit {proc.returncode}, failed={payload['summary']['failed']}, "
        f"errored={payload['summary']['errored']}, {elapsed:.1f} s; "
        f"injected-failure exit {inject.returncode}",
    )
