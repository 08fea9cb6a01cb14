"""Case registry: determinism, negative controls, error containment."""

import dataclasses
import json
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from paper_kernels import raw_double_integral_kernel

from eulersum import eulersums, exactmath, quad, registry as registry_module, specfun
from eulersum.constants import zeta
from eulersum.quad import integrate2d
from eulersum.registry import (
    IdentityCase,
    builtin_registry,
    inject_failure,
    run_case,
    run_suite,
)

GOLDEN = Path(__file__).with_name("registry_golden.json")

EXPECTED_KEYS = {
    "id",
    "status",
    "lhs_value",
    "rhs_value",
    "abs_residual",
    "rel_residual",
    "tol",
    "evaluations",
    "elapsed_ms",
}


def log_squared_over_one_minus(t):
    """log(t)^2/(1-t), whose integral over [0, 1] is 2 zeta(3)."""
    return np.log(t) ** 2 / (1.0 - t)


def below_floor(rule):
    """rule with its tol replaced by 1e-18, below the rounding floor: it runs
    to MAX_LEVEL and never converges."""
    return lambda f, tol: rule(f, 1e-18)


def plus_one(route):
    """route with its exact value (a, b) raised by 1, as (a + b, b)."""
    def shifted(*args):
        numerator, denominator = route(*args)
        return numerator + denominator, denominator
    return shifted


def grid_point(case_id):
    """The parameters in a family case's id: {"u": 0.3} for
    "inner-integral/u=0.3", {"n": 7, "p": 3} for "binomial-exact/n=7,p=3"."""
    pairs = (param.split("=") for param in case_id.split("/")[1].split(","))
    return {name: (float if "." in value else int)(value) for name, value in pairs}


def side_value(value):
    """A side's value: an exact pair as a Fraction, a quadrature's value."""
    return Fraction(*value) if isinstance(value, tuple) else getattr(value, "value", value)


# Each family's two routes, called directly with a grid point's parameters.
FAMILY_ROUTES = {
    "binomial-exact": (
        lambda n, p: factorial(p) * Fraction(*exactmath.alt_binomial_sum(n, p)),
        lambda n, p: Fraction(*exactmath.moment_integral_exact(n, p)),
    ),
    "altsum-harmonic": (
        lambda n: Fraction(*exactmath.alt_binomial_sum(n, 1)),
        lambda n: -Fraction(*exactmath.harmonic_exact(n, 1)),
    ),
    "gp-closed": (
        lambda p: eulersums.sum_gp_closed_form(p),
        lambda p: eulersums.sum_series(eulersums.EulerSumSpec(1, 2 * p + 1)),
    ),
    "gp-integral": (
        lambda p: eulersums.sum_via_integral(2 * p + 1),
        lambda p: eulersums.sum_gp_closed_form(p),
    ),
    "inner-integral": (
        lambda u: eulersums.inner_integral(u),
        lambda u: eulersums.inner_integral_quadrature(u).value,
    ),
}


@pytest.fixture(scope="module")
def registry():
    return builtin_registry()


@pytest.fixture(scope="module")
def fast_cases(registry):
    """Everything except the 2-D quadratures, for rapid suite-level tests."""
    return [c for c in registry if not c.id.endswith("-2d")]


class TestRegistryContents:
    def test_minimum_size_and_unique_sorted_ids(self, registry):
        ids = [c.id for c in registry]
        assert len(registry) >= 12
        assert len(ids) == len(set(ids))
        assert sorted(ids) == sorted(ids)  # sortable, deterministic

    def test_required_cases_present(self, registry):
        ids = {c.id for c in registry}
        for required in (
            "euler-q2-series",
            "euler-q2-integral",
            "euler-q3-series",
            "landen-grid",
            "dedoelder-2d",
            "open-q3-2d",
            "gp-closed/p=3",
            "gp-integral/p=2",
            "inner-integral/u=0.5",
        ):
            assert required in ids

    def test_euler_case_attribution(self, registry):
        case = next(c for c in registry if c.id == "euler-q2-series")
        assert "Euler" in case.source

    def test_exact_family_expanded(self, registry):
        assert any(c.id == "binomial-exact/n=7,p=3" for c in registry)
        exact = [c for c in registry if c.kind == "exact"]
        assert len(exact) == 48 + 60
        assert all(c.tol == 0.0 for c in exact)

    def test_catalogue_order(self, registry):
        ids = [c.id for c in registry]
        assert len(ids) == 131
        # A family expands over its grid with the first parameter outermost.
        assert ids[:5] == [
            "binomial-exact/n=1,p=1", "binomial-exact/n=1,p=2",
            "binomial-exact/n=1,p=3", "binomial-exact/n=1,p=4",
            "binomial-exact/n=2,p=1",
        ]
        assert list(dict.fromkeys(i.split("/")[0] for i in ids)) == [
            "binomial-exact", "altsum-harmonic", "euler-q2-series",
            "euler-q2-integral", "euler-q2-quadrature", "euler-q3-series",
            "euler-q3-integral", "gp-closed", "gp-integral", "inner-integral",
            "landen-grid", "ref-log3-integral", "dedoelder-halflog3",
            "dedoelder-series", "dedoelder-outer", "dedoelder-2d", "open-q3-2d",
            "zeta-product",
        ]

    @pytest.mark.parametrize("family", FAMILY_ROUTES)
    def test_family_sides_evaluate_their_own_grid_point(self, registry, family):
        # A side that read its grid values late would run the family's last
        # point; in an exact family both sides would still agree and pass.
        lhs, rhs = FAMILY_ROUTES[family]
        cases = [c for c in registry if c.id.startswith(family + "/")]
        assert cases
        for case in cases:
            point = grid_point(case.id)
            assert side_value(case.lhs()) == lhs(**point), case.id
            assert side_value(case.rhs()) == rhs(**point), case.id

    def test_numeric_cases_have_positive_tol(self, registry):
        for c in registry:
            if c.kind == "numeric":
                assert c.tol > 0.0
                assert c.criterion in ("abs", "rel")

    def test_case_validation(self):
        # A tol of 0 makes the case exact, so float sides cannot pass it.
        zero_tol = IdentityCase("x", "d", lambda: 1.0, lambda: 1.0, tol=0.0)
        assert zero_tol.kind == "exact"
        assert run_case(zero_tol).status == "error"
        with pytest.raises(ValueError):
            IdentityCase("x", "d", lambda: 1, lambda: 1, tol=1e-3, criterion="norm")

    @pytest.mark.parametrize("tol", [-1e-3, math.nan, math.inf, -math.inf, True, False])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tol"):
            IdentityCase("x", "d", lambda: 1.0, lambda: 1.0, tol=tol)

    def test_kind_follows_tol(self):
        assert IdentityCase("x", "d", lambda: 1, lambda: 1).kind == "exact"
        assert IdentityCase("x", "d", lambda: 1, lambda: 1, tol=0.0).kind == "exact"
        assert IdentityCase("x", "d", lambda: 1, lambda: 1, tol=5e-324).kind == "numeric"
        assert IdentityCase("x", "d", lambda: 1, lambda: 1, tol=1e-9).kind == "numeric"

    def test_catalogue_matches_golden_list(self, registry):
        """Ids, order, descriptions, kinds, tolerances, criteria and sources
        of every builtin case, as recorded in tests/registry_golden.json."""
        golden = json.loads(GOLDEN.read_text())
        assert [
            [c.id, c.description, c.kind, c.tol, c.criterion, c.source]
            for c in registry
        ] == golden
        assert len(golden) == 131


class TestRunCase:
    def test_numeric_pass(self, registry):
        case = next(c for c in registry if c.id == "euler-q2-series")
        result = run_case(case)
        assert result.status == "pass"
        assert result.abs_residual <= 1e-10
        assert result.elapsed_ms >= 0.0

    def test_exact_pass_reports_zero_residual(self, registry):
        case = next(c for c in registry if c.id == "altsum-harmonic/n=17")
        result = run_case(case)
        assert result.status == "pass"
        assert result.abs_residual == 0.0
        assert result.rel_residual == 0.0

    def test_equal_exact_sides_report_zero_residuals(self, registry):
        for case_id in ("binomial-exact/n=12,p=4", "altsum-harmonic/n=60"):
            case = next(c for c in registry if c.id == case_id)
            result = run_case(case)
            assert result.status == "pass"
            assert result.abs_residual == 0.0 and result.rel_residual == 0.0
            assert type(result.abs_residual) is float
            assert type(result.rel_residual) is float
        # Unreduced pairs that cross-multiply equal pass too, and print their
        # value reduced once, as str(Fraction) prints it.
        for lhs, rhs, text in (((6, 4), (3, 2), "3/2"), ((4, 2), (2, 1), "2"),
                               ((0, 5), (0, 1), "0"), ((-22, 12), (-11, 6), "-11/6")):
            case = IdentityCase("equal", "equal unreduced pairs",
                                lambda: lhs, lambda: rhs)
            result = run_case(case)
            assert (result.status, result.lhs_value, result.rhs_value) == (
                "pass", text, text)
            assert result.abs_residual == result.rel_residual == 0.0

    def test_exact_sides_match_a_naive_oracle(self, registry):
        # Term by term in Fractions, with no share table or binomial row.
        def alt_sum(n, p):
            return factorial(p) * sum(
                Fraction(comb(n, k) * (-1) ** k, k**p) for k in range(1, n + 1)
            )

        def moments(n, p):
            # (-1)^(p+1) n sum_j C(n-1, j) (-1)^j int_0^1 t^j log(t)^p dt
            return (-1) ** (p + 1) * n * sum(
                Fraction(comb(n - 1, j) * (-1) ** j * (-1) ** p * factorial(p),
                         (j + 1) ** (p + 1))
                for j in range(n)
            )

        def minus_harmonic(n):
            return -sum(Fraction(1, k) for k in range(1, n + 1))

        exact = [case for case in registry if case.kind == "exact"]
        assert len(exact) == 108
        for case in exact:
            family, _, point = case.id.partition("/")
            params = {key: int(value) for key, value in
                      (item.split("=") for item in point.split(","))}
            if family == "binomial-exact":
                expected = alt_sum(**params), moments(**params)
            else:
                assert family == "altsum-harmonic"
                expected = alt_sum(params["n"], 1), minus_harmonic(params["n"])
            result = run_case(case)
            assert (result.lhs_value, result.rhs_value) == tuple(map(str, expected))

    def test_unequal_exact_sides_report_their_residual(self, registry):
        cases = inject_failure(registry, "binomial-exact/n=3,p=2")
        target = next(c for c in cases if c.id == "binomial-exact/n=3,p=2")
        result = run_case(target)
        assert result.status == "fail"
        assert result.abs_residual == 1.0
        rhs = Fraction(result.rhs_value)
        assert result.rel_residual == float(1 / max(abs(rhs), abs(rhs - 1)))
        # Sides 10^-400 apart: both residuals round to 0.0, yet the exact
        # difference fails the case.
        close = IdentityCase("close", "exact sides 10^-400 apart",
                             lambda: (1, 1), lambda: (10**400 + 1, 10**400))
        result = run_case(close)
        assert (result.status, result.abs_residual, result.rel_residual) == (
            "fail", 0.0, 0.0)
        assert result.lhs_value != result.rhs_value
        assert (result.lhs_value, Fraction(result.rhs_value)) == (
            "1", 1 + Fraction(1, 10**400))

    def test_corrupted_numeric_case_fails(self):
        case = IdentityCase(
            id="control",
            description="deliberately corrupted",
            lhs=lambda: 1.0,
            rhs=lambda: 1.0 + 1e-3,
            tol=1e-6,
        )
        result = run_case(case)
        assert result.status == "fail"
        assert result.abs_residual == pytest.approx(1e-3, rel=1e-6)

    def test_error_path_is_contained(self):
        case = IdentityCase(
            id="boom",
            description="divides by zero",
            lhs=lambda: 1.0 / 0.0,
            rhs=lambda: 1.0,
            tol=1e-6,
        )
        result = run_case(case)
        assert result.status == "error"
        assert "ZeroDivisionError" in result.message
        assert result.lhs_value is None
        assert result.abs_residual is None

    @pytest.mark.parametrize(
        "lhs, rhs, side",
        [(math.nan, 1.0, "lhs"), (1.0, math.nan, "rhs"),
         (math.inf, math.inf, "lhs"), (1.0, -math.inf, "rhs")],
    )
    def test_non_finite_side_is_error(self, lhs, rhs, side):
        case = IdentityCase(
            id="non-finite", description="a side that is not a number",
            lhs=lambda: lhs, rhs=lambda: rhs, tol=1e-6,
        )
        result = run_case(case)
        assert result.status == "error"
        assert result.message.startswith(f"ValueError: non-finite {side}: ")
        assert result.abs_residual is None and result.rel_residual is None

    def test_exact_case_type_mismatch_is_error(self):
        # An exact side is a tuple of two ints, neither a bool, with a
        # positive denominator; anything else errors on either side, with
        # one line.
        message = ("TypeError: exact case sides must evaluate to int pairs "
                   "(numerator, denominator > 0)")
        for bad in (1.0, Fraction(1), (True, 1), (1, False), (1, 0), (1, -2),
                    (1, 2, 3), (1.0, 1), [1, 1], 1):
            for lhs, rhs in ((bad, (1, 1)), ((1, 1), bad)):
                case = IdentityCase("mistyped", "not an int pair in an exact case",
                                    lambda: lhs, lambda: rhs)
                result = run_case(case)
                assert (result.status, result.message) == ("error", message), bad
                assert result.lhs_value is result.abs_residual is None

    @pytest.mark.parametrize(
        "lhs, tol, message, evaluations",
        [
            (lambda: math.nan, 1e-6, "ValueError: non-finite lhs: nan", 0),
            (lambda: 1.0, 0.0,
             "TypeError: exact case sides must evaluate to int pairs "
             "(numerator, denominator > 0)", 0),
            (lambda: quad.integrate(log_squared_over_one_minus, 1e-18),
             1e-6, "QuadratureError: no convergence within 12 refinement levels",
             37_926),
        ],
        ids=["nan", "float-in-exact-case", "non-converged"],
    )
    def test_first_failing_side_ends_the_case(self, lhs, tol, message, evaluations):
        # The rhs would converge, but a failed lhs means it never runs.
        calls = []

        def rhs():
            calls.append(1)
            return quad.integrate(log_squared_over_one_minus, 1e-12)

        result = run_case(IdentityCase("first-fails", "lhs fails", lhs, rhs, tol))
        assert (result.status, result.message) == ("error", message)
        assert result.evaluations == evaluations
        assert calls == []

    def test_relative_criterion(self):
        case = IdentityCase(
            id="rel",
            description="relative comparison",
            lhs=lambda: 1000.0,
            rhs=lambda: 1000.0 + 5e-7,
            tol=1e-9,
            criterion="rel",
        )
        assert run_case(case).status == "pass"  # 5e-10 relative
        # Sides 0.0 and -0.0 are equal: no 0/0, both residuals 0.0.
        zeros = IdentityCase("zeros", "signed zeros", lambda: 0.0, lambda: -0.0,
                             1e-9, "rel")
        result = run_case(zeros)
        assert (result.status, result.abs_residual, result.rel_residual) == (
            "pass", 0.0, 0.0)
        # At tol 0 the rel criterion, too, passes only equal sides.
        third = (1, 3)
        for rhs, status in (((2, 6), "pass"), ((10**30 + 3, 3 * 10**30), "fail")):
            exact = IdentityCase("exact-rel", "exact case under rel",
                                 lambda: third, lambda: rhs, criterion="rel")
            assert run_case(exact).status == status


class TestTolOverrideValidation:
    """There is no override: a case is judged only against its own tol."""

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 0.0, 1.0, -1e-3, 2.0, "1e-3"]
    )
    def test_rejected_before_any_case_runs(self, value):
        # A stale override is a TypeError, by keyword or by position, and a
        # case list passed by position is not run.
        runs = []
        case = IdentityCase("x", "counts its runs", lambda: runs.append(1) or 1.0,
                            lambda: 1.0, 1e-9)
        for call in (
            lambda: run_case(case, value),
            lambda: run_case(case, tol_override=value),
            lambda: run_suite("x", value, cases=[case]),
            lambda: run_suite("x", tol_override=value, cases=[case]),
            lambda: run_suite("x", [case]),
        ):
            with pytest.raises(TypeError):
                call()
        assert runs == []
        assert run_case(case).status == "pass" and runs == [1]


class TestRunSuite:
    def test_all_fast_cases_pass(self, fast_cases):
        report = run_suite(cases=fast_cases)
        assert report.summary["failed"] == 0
        assert report.summary["errored"] == 0
        assert report.summary["total"] == len(fast_cases)
        assert report.summary["passed"] == len(fast_cases)

    def test_report_sorted_by_id(self, fast_cases):
        report = run_suite(cases=fast_cases)
        ids = [c.id for c in report.cases]
        assert ids == sorted(ids)

    def test_filter_prefix(self):
        report = run_suite(id_prefix="gp-")
        assert report.summary["total"] == 5
        assert all(c.id.startswith("gp-") for c in report.cases)

    def test_determinism(self, fast_cases):
        first = run_suite(cases=fast_cases)
        second = run_suite(cases=fast_cases)
        for a, b in zip(first.cases, second.cases):
            assert a.id == b.id
            assert a.status == b.status
            assert a.abs_residual == b.abs_residual
            assert a.rel_residual == b.rel_residual

    def test_repeat_runs_identical(self):
        first = run_suite(id_prefix="inner-integral")
        second = run_suite(id_prefix="inner-integral")
        assert [(c.id, c.status, c.abs_residual, c.rel_residual) for c in first.cases] == [
            (c.id, c.status, c.abs_residual, c.rel_residual) for c in second.cases
        ]

    def test_report_schema(self, registry):
        report = run_suite(id_prefix="zeta-product")
        payload = report.as_dict()
        assert set(payload.keys()) == {"cases", "summary", "suite_elapsed_ms"}
        assert set(payload["summary"].keys()) == {
            "total", "passed", "failed", "errored",
        }
        for case in payload["cases"]:
            assert set(case.keys()) == EXPECTED_KEYS

    def test_each_case_is_judged_against_its_own_tol(self, registry):
        report = run_suite()
        tols = {case.id: case.tol for case in registry}
        assert {r.id: r.tol for r in report.cases} == tols

    def test_one_bad_case_does_not_abort_suite(self):
        cases = [
            IdentityCase("a-ok", "fine", lambda: 1.0, lambda: 1.0, 1e-9),
            IdentityCase("b-boom", "raises", lambda: 1.0 / 0.0, lambda: 1.0, 1e-9),
        ]
        report = run_suite(cases=cases)
        assert report.summary == {"total": 2, "passed": 1, "failed": 0, "errored": 1}


class TestBuiltinCasesBuiltOnce:
    """run_suite() reuses one case tuple but evaluates every case each call."""

    def test_every_call_evaluates_every_case(self, monkeypatch):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("alt_binomial_sum", "harmonic_exact", "moment_integral_exact"):
            counted(registry_module, name)
        counted(eulersums, "sum_series")
        # one level down: a value memoised inside a kernel would skip these
        counted(exactmath, "_share_table")
        counted(eulersums, "_tail_sum")

        counts = []
        for _ in range(2):
            calls.clear()
            report = run_suite()
            assert report.summary["passed"] == report.summary["total"] == 131
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {
            "alt_binomial_sum": 108,
            "harmonic_exact": 60,
            "moment_integral_exact": 48,
            "sum_series": 7,
            "_share_table": 216,
            "_tail_sum": 7,
        }

    def test_returned_list_is_a_fresh_copy(self):
        cases = builtin_registry()
        cases[:] = inject_failure(cases, "zeta-product")
        cases.append(
            IdentityCase("zeta-bogus", "never run", lambda: 0.0, lambda: 1.0, 1e-9)
        )
        report = run_suite(id_prefix="zeta")
        assert [(c.id, c.status) for c in report.cases] == [("zeta-product", "pass")]
        assert builtin_registry() is not builtin_registry()


class TestEvaluationCounts:
    """Integrand evaluations of the suite's quadrature routes, pinned."""

    def test_one_dimensional_routes(self, fast_cases):
        report = run_suite(cases=fast_cases)
        counts = {c.id: c.evaluations for c in report.cases if c.evaluations}
        assert counts == {
            "dedoelder-halflog3": 75,
            "dedoelder-outer": 75,
            "euler-q2-integral": 75,
            "euler-q2-quadrature": 75,
            "euler-q3-integral": 75,
            "gp-integral/p=1": 75,
            "gp-integral/p=2": 75,
            "inner-integral/u=0.1": 149,
            "inner-integral/u=0.3": 149,
            "inner-integral/u=0.5": 149,
            "inner-integral/u=0.7": 75,
            "inner-integral/u=0.9": 75,
            "ref-log3-integral": 149,
        }

    @pytest.mark.parametrize("q,evaluations", [(2, 117_858), (3, 6_735)])
    def test_two_dimensional_routes(self, q, evaluations):
        # The paper's kernels before u = t v: what tensor tanh-sinh pays for
        # the corner t = u = 0 at the registry's tol. Every inner rule
        # opens on levels 1-3, so a row that stops at inner level 2 counts
        # 75 points.
        result = integrate2d(raw_double_integral_kernel(q), 1e-8)
        assert result.converged
        assert result.evaluations == evaluations

    @pytest.mark.parametrize(
        "case_id,evaluations", [("dedoelder-2d", 5_625), ("open-q3-2d", 5_625)]
    )
    def test_two_dimensional_cases_report_their_count(self, case_id, evaluations):
        report = run_suite(id_prefix=case_id)
        (result,) = report.cases
        assert result.status == "pass"
        assert result.evaluations == evaluations


    def test_integrand_calls_per_suite_pass(self, monkeypatch):
        # Levels 1-3 are one pass: every 1-D rule of the suite converges at
        # level 3 or 4, so it makes one or two integrand calls, and both
        # 2-D rules converge at outer level 3 with every inner integral at
        # inner level 3: one kernel call on one outer block, 75 x 75 points.
        calls = {"integrate": 0, "integrate2d": 0}

        def counted(name):
            rule = getattr(quad, name)

            def run(f, *args, **kwargs):
                def f_counted(*x):
                    calls[name] += 1
                    return f(*x)

                return rule(f_counted, *args, **kwargs)

            return run

        for module in (eulersums, registry_module):
            for name in calls:
                if getattr(module, name, None) is getattr(quad, name):
                    monkeypatch.setattr(module, name, counted(name))
        report = run_suite()
        assert report.summary["passed"] == report.summary["total"]
        assert calls == {"integrate": 17, "integrate2d": 2}


class TestQuadratureTrustGate:
    """A route that returns a non-converged result errors, with its message
    and the evaluations its sides made."""

    # Evaluations of a rule below the rounding floor: the 1-D rule runs
    # every level; the 2-D rule fails in its opening block of 75 rows, each
    # running every inner level.
    FAILED_EVALUATIONS = {"integrate": 37_926, "integrate2d": 75 * 37_926}

    @pytest.mark.parametrize(
        "case_id,name,message",
        [
            ("dedoelder-2d", "integrate2d",
             "inner integral failed at u=0.5: no convergence within 12 refinement levels"),
            ("open-q3-2d", "integrate2d",
             "inner integral failed at u=0.5: no convergence within 12 refinement levels"),
            ("dedoelder-outer", "integrate", "no convergence within 12 refinement levels"),
        ],
    )
    def test_non_converged_route_is_an_error(self, monkeypatch, case_id, name, message):
        monkeypatch.setattr(eulersums, name, below_floor(getattr(eulersums, name)))
        (result,) = run_suite(id_prefix=case_id).cases
        assert result.status == "error"
        assert result.message == f"QuadratureError: {message}"
        assert result.lhs_value is None
        assert result.evaluations == self.FAILED_EVALUATIONS[name]

    @pytest.mark.parametrize(
        "case_id", ["euler-q2-integral", "gp-integral/p=1", "dedoelder-halflog3"]
    )
    def test_non_converged_registry_quadrature_is_an_error(self, monkeypatch, case_id):
        monkeypatch.setattr(
            registry_module, "integrate", below_floor(registry_module.integrate)
        )
        (result,) = run_suite(id_prefix=case_id).cases
        assert result.status == "error"
        assert result.message == (
            "QuadratureError: no convergence within 12 refinement levels"
        )
        assert result.evaluations == self.FAILED_EVALUATIONS["integrate"]

    def test_converged_side_counts_beside_a_failed_one(self):
        def f(t):
            return np.log(t) ** 2 / (1.0 - t)

        lhs = quad.integrate(f, 1e-12)
        case = IdentityCase(
            "mixed", "lhs converges, rhs does not",
            lambda: lhs, lambda: quad.integrate(f, 1e-18), 1e-9,
        )
        result = run_case(case)
        assert lhs.converged and result.status == "error"
        failed = self.FAILED_EVALUATIONS["integrate"]
        assert result.evaluations == lhs.evaluations + failed

    def test_halflog3_has_its_own_integrand(self, registry):
        # -3/2 int log^2 t log(1-t)/t dt = 3 zeta(4) converges on 75 nodes,
        # where ref-log3-integral's log^3 t/(1-t) takes 149: the case no
        # longer rescales that route's value.
        (case,) = [c for c in registry if c.id == "dedoelder-halflog3"]
        lhs = case.lhs()
        assert lhs.value == 3.0 * zeta(4) == 3.2469697011334144
        assert (lhs.evaluations, lhs.converged) == (75, True)


class TestBlindSpotSweep:
    """A defect planted in one primitive must fail some case of the suite.

    Each test scales one primitive's output by (1 + eps) and runs the whole
    suite; a case may start to catch the defect, none may stop catching it.
    """

    @staticmethod
    def failing(monkeypatch, patches, cache=None):
        """Ids of the cases that do not pass while each (namespace, name,
        value) of patches is set. A cache built from the patched primitive
        is cleared before the run and again once the patches are undone."""
        if cache is not None:
            cache.cache_clear()
        try:
            with monkeypatch.context() as patched:
                for namespace, name, value in patches:
                    patched.setattr(namespace, name, value)
                return {c.id for c in run_suite().cases if c.status != "pass"}
        finally:
            if cache is not None:
                cache.cache_clear()

    def test_tail_sum_scaled_by_1e_8_is_caught(self, monkeypatch):
        real = eulersums._tail_sum
        scaled = (eulersums, "_tail_sum", lambda p, q: real(p, q) * (1.0 + 1e-8))
        failing = self.failing(monkeypatch, [scaled])
        assert {"euler-q2-series", "dedoelder-series"} <= failing

    def test_double_integral_kernel_scaled_by_1e_8_is_caught(self, monkeypatch):
        real = eulersums.double_integral_kernel

        def scaled_kernel(q):
            kernel = real(q)
            return lambda t, v: kernel(t, v) * (1.0 + 1e-8)

        scaled = (eulersums, "double_integral_kernel", scaled_kernel)
        assert "dedoelder-2d" in self.failing(monkeypatch, [scaled])

    @pytest.mark.parametrize(
        "order, eps, caught",
        [(None, 1e-12, {"landen-grid", "zeta-product"}), (5, 1e-10, {"gp-closed/p=3"})],
        ids=["every-order", "order-5-alone"],
    )
    def test_zeta_scaled_is_caught(self, monkeypatch, order, eps, caught):
        def scaled(s):
            return zeta(s) * (1.0 + eps) if order in (None, s) else zeta(s)

        patches = [(namespace, "zeta", scaled)
                   for namespace in (registry_module, eulersums, specfun)]
        # _log_expansion_coeffs caches zeta(s - k) per order.
        failing = self.failing(monkeypatch, patches, specfun._log_expansion_coeffs)
        assert caught <= failing

    def test_quadrature_weights_scaled_by_1e_11_are_caught(self, monkeypatch):
        real = quad._level_nodes

        def scaled_nodes(level):
            x, w = real(level)
            return x, w * (1.0 + 1e-11)

        # Both rules read each level's weights through _level_nodes; the
        # cached opening abscissas are the same under the scaling.
        scaled = (quad, "_level_nodes", scaled_nodes)
        failing = self.failing(monkeypatch, [scaled])
        assert {"euler-q2-quadrature", "ref-log3-integral"} <= failing

    @pytest.mark.parametrize("kernel", ["_dilog", "_dilog_one_minus"])
    def test_li2_kernel_scaled_by_1e_10_is_caught(self, monkeypatch, kernel):
        real = getattr(specfun, kernel)
        scaled = (specfun, kernel, lambda x: real(x) * (1.0 + 1e-10))
        failing = self.failing(monkeypatch, [scaled])
        # The float path (inner-integral's closed form) and the array path
        # (landen-grid's stable form) each catch it.
        assert "landen-grid" in failing
        assert any(case_id.startswith("inner-integral/") for case_id in failing)

    @pytest.mark.parametrize("kernel, eps", [("_dilog", 1e-12), ("_dilog_one_minus", 1e-11)])
    def test_li2_kernel_scaled_below_1e_10_is_caught_by_landen_grid(
        self, monkeypatch, kernel, eps
    ):
        # The series serves both sides of landen-grid; the reflection only
        # its direct side, for arguments in (-1, -1/2).
        real = getattr(specfun, kernel)
        scaled = (specfun, kernel, lambda x: real(x) * (1.0 + eps))
        assert "landen-grid" in self.failing(monkeypatch, [scaled])

    @pytest.mark.parametrize("name, patch, family, size", [
        ("_factorial_times_alt_sum", plus_one, "binomial-exact/", 48),
        ("_minus_harmonic", plus_one, "altsum-harmonic/", 60),
        ("_landen_max_residual", lambda route: lambda: 1.0, "landen-grid", 1),
    ], ids=["factorial-times-alt-sum", "minus-harmonic", "landen-max-residual"])
    def test_patched_registry_route_fails_its_family(
        self, monkeypatch, name, patch, family, size
    ):
        # Each side calls its route by name when the case runs, so a patch
        # on the registry's namespace reaches every case of the family.
        patched = (registry_module, name, patch(getattr(registry_module, name)))
        failing = self.failing(monkeypatch, [patched])
        assert failing == {c.id for c in builtin_registry() if c.id.startswith(family)}
        assert len(failing) == size


class TestInjectFailure:
    def test_numeric_flip(self, registry):
        cases = inject_failure(registry, "euler-q2-series")
        target = next(c for c in cases if c.id == "euler-q2-series")
        assert run_case(target).status == "fail"

    def test_exact_flip(self, registry):
        cases = inject_failure(registry, "altsum-harmonic/n=5")
        target = next(c for c in cases if c.id == "altsum-harmonic/n=5")
        assert run_case(target).status == "fail"

    def test_negative_control_sensitivity(self, registry):
        # Corrupting any case, exact and 2-D ones included, must make it
        # fail: no case can hide a failure behind a pass or an error.
        for case_id in [c.id for c in registry]:
            cases = inject_failure(registry, case_id)
            target = next(c for c in cases if c.id == case_id)
            assert run_case(target).status == "fail", case_id

    def test_unknown_id(self, registry):
        with pytest.raises(KeyError):
            inject_failure(registry, "no-such-case")

    def test_quadrature_rhs_keeps_its_evaluations(self, registry, monkeypatch):
        # The corrupted rhs is the quadrature's own result, value shifted:
        # the runner still counts its evaluations and applies its trust gate.
        case_id = "inner-integral/u=0.1"
        clean = run_case(next(c for c in registry if c.id == case_id))
        target = next(c for c in inject_failure(registry, case_id) if c.id == case_id)
        corrupted = run_case(target)
        assert (clean.status, corrupted.status) == ("pass", "fail")
        assert corrupted.evaluations == clean.evaluations == 149
        assert corrupted.rhs_value == clean.rhs_value + 100.0 * target.tol
        monkeypatch.setattr(eulersums, "integrate", below_floor(quad.integrate))
        result = run_case(target)
        assert result.status == "error"
        assert result.message == (
            "QuadratureError: no convergence within 12 refinement levels"
        )

    @pytest.mark.parametrize("case_id", ["euler-q2-series", "altsum-harmonic/n=5"])
    def test_changes_only_rhs_and_description(self, registry, case_id):
        cases = inject_failure(registry, case_id)
        assert len(cases) == len(registry)
        for before, after in zip(registry, cases):
            if before.id != case_id:
                assert after is before
                continue
            assert after.description == before.description + " [corrupted]"
            assert after.rhs is not before.rhs
            assert dataclasses.replace(
                after, description=before.description, rhs=before.rhs
            ) == before
