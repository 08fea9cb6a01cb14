"""The identity catalogue: every verified equality as a named case.

Each case carries two evaluation closures (left and right side), a
comparison kind and a tolerance. Exact cases compare arbitrary-precision
rationals structurally; numeric cases compare floats against a per-case
absolute or relative tolerance. Running a case never raises: evaluator
exceptions become status "error" so one broken case cannot take down the
suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Optional

import numpy as np

from . import eulersums
from .constants import zeta
from .exactmath import alt_binomial_sum, harmonic_exact, moment_integral_exact
from .quad import QuadratureError, QuadratureResult, integrate
from .specfun import dilog_neg_ratio, polylog_array

__all__ = [
    "IdentityCase",
    "CaseResult",
    "VerificationReport",
    "builtin_registry",
    "run_case",
    "run_suite",
    "inject_failure",
]


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable equality.

    kind "exact" means both closures return Fractions and the comparison is
    structural equality; kind "numeric" compares floats with `tol` under
    the declared criterion ("abs": |l - r| <= tol; "rel":
    |l - r| <= tol * max(|l|, |r|)). Closures may return a QuadratureResult,
    in which case its convergence flag and evaluation count are honoured.
    """

    id: str
    description: str
    lhs: Callable[[], object]
    rhs: Callable[[], object]
    kind: str  # "exact" | "numeric"
    tol: float = 0.0
    criterion: str = "abs"  # "abs" | "rel"
    source: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "numeric"):
            raise ValueError(f"unknown case kind {self.kind!r}")
        if self.kind == "numeric" and not self.tol > 0.0:
            raise ValueError(f"numeric case {self.id!r} needs tol > 0")
        if self.criterion not in ("abs", "rel"):
            raise ValueError(f"unknown residual criterion {self.criterion!r}")


@dataclass
class CaseResult:
    id: str
    status: str  # "pass" | "fail" | "error"
    lhs_value: object
    rhs_value: object
    abs_residual: Optional[float]
    rel_residual: Optional[float]
    tol: float
    evaluations: int
    elapsed_ms: float
    message: str = field(default="", compare=False)

    def as_dict(self) -> dict:
        """Schema-stable serialisation (the message stays out of reports)."""
        return {
            "id": self.id,
            "status": self.status,
            "lhs_value": self.lhs_value,
            "rhs_value": self.rhs_value,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tol": self.tol,
            "evaluations": self.evaluations,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class VerificationReport:
    cases: list[CaseResult]
    summary: dict
    suite_elapsed_ms: float

    def as_dict(self) -> dict:
        return {
            "cases": [c.as_dict() for c in self.cases],
            "summary": dict(self.summary),
            "suite_elapsed_ms": self.suite_elapsed_ms,
        }


def _eval_side(fn: Callable[[], object]) -> tuple[object, int]:
    value = fn()
    if isinstance(value, QuadratureResult):
        if not value.converged:
            raise QuadratureError(
                value.message or "quadrature did not converge", value
            )
        return value.value, value.evaluations
    return value, 0


def _check_tol_override(tol_override: Optional[float]) -> None:
    """Reject an override that could let every identity pass, or none.

    At 1 and above the relative criterion |l - r| <= X max(|l|, |r|)
    accepts any two values of the same sign; NaN would be dropped by max().
    """
    if tol_override is None:
        return
    try:
        valid = 0.0 < tol_override < 1.0  # also rejects NaN and both infinities
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(
            "tol_override must be a finite number with 0 < X < 1, "
            f"got {tol_override!r}"
        )


def run_case(case: IdentityCase, tol_override: Optional[float] = None) -> CaseResult:
    """Evaluate both sides of a case and classify the outcome.

    tol_override can only loosen: the effective tolerance is the larger of
    the case's own tolerance and the override, so a suite-wide override
    never makes a method fail a bar it was not designed to meet. It must be
    a finite number with 0 < X < 1 (ValueError otherwise).
    """
    _check_tol_override(tol_override)
    tol = case.tol
    if case.kind == "numeric" and tol_override is not None:
        tol = max(tol, tol_override)
    start = time.perf_counter()
    try:
        lhs, lhs_evals = _eval_side(case.lhs)
        rhs, rhs_evals = _eval_side(case.rhs)
        if case.kind == "exact":
            if not isinstance(lhs, Fraction) or not isinstance(rhs, Fraction):
                raise TypeError("exact case sides must evaluate to Fractions")
            if lhs == rhs:
                abs_res = rel_res = 0.0
                status = "pass"
            else:
                diff = abs(lhs - rhs)
                abs_res = float(diff)
                rel_res = float(diff / max(abs(lhs), abs(rhs)))
                status = "fail"
            lhs_out: object = str(lhs)
            rhs_out: object = str(rhs)
        else:
            lhs_f, rhs_f = float(lhs), float(rhs)
            abs_res = abs(lhs_f - rhs_f)
            denom = max(abs(lhs_f), abs(rhs_f))
            rel_res = abs_res / denom if denom else 0.0
            bound = tol if case.criterion == "abs" else tol * max(1e-300, denom)
            status = "pass" if abs_res <= bound else "fail"
            lhs_out, rhs_out = lhs_f, rhs_f
    except Exception as exc:  # evaluator failures are data, not control flow
        elapsed = (time.perf_counter() - start) * 1e3
        return CaseResult(
            id=case.id,
            status="error",
            lhs_value=None,
            rhs_value=None,
            abs_residual=None,
            rel_residual=None,
            tol=tol,
            evaluations=0,
            elapsed_ms=elapsed,
            message=f"{type(exc).__name__}: {exc}",
        )
    elapsed = (time.perf_counter() - start) * 1e3
    return CaseResult(
        id=case.id,
        status=status,
        lhs_value=lhs_out,
        rhs_value=rhs_out,
        abs_residual=abs_res,
        rel_residual=rel_res,
        tol=tol,
        evaluations=lhs_evals + rhs_evals,
        elapsed_ms=elapsed,
    )


def run_suite(
    id_prefix: Optional[str] = None,
    tol_override: Optional[float] = None,
    cases: Optional[list[IdentityCase]] = None,
) -> VerificationReport:
    """Run all (or id-prefix filtered) cases in order and assemble the report.

    The report is ordered by case id, so two runs of the same build produce
    identical statuses and residuals. Cases run one after another: they
    are pure Python and numpy work under one interpreter lock, so a thread
    pool only adds scheduling overhead. Without `cases` it runs the builtin
    cases, built once per process; every call still evaluates both sides of
    every case. tol_override follows run_case (ValueError when invalid).
    """
    _check_tol_override(tol_override)
    if cases is None:
        cases = _builtin_cases()
    if id_prefix is not None:
        cases = [c for c in cases if c.id.startswith(id_prefix)]
    start = time.perf_counter()
    results = [run_case(c, tol_override) for c in cases]
    suite_elapsed = (time.perf_counter() - start) * 1e3
    results.sort(key=lambda r: r.id)
    summary = {
        "total": len(results),
        "passed": sum(r.status == "pass" for r in results),
        "failed": sum(r.status == "fail" for r in results),
        "errored": sum(r.status == "error" for r in results),
    }
    return VerificationReport(
        cases=results, summary=summary, suite_elapsed_ms=suite_elapsed
    )


def inject_failure(cases: list[IdentityCase], case_id: str) -> list[IdentityCase]:
    """Corrupt one case's right side (negative control for the harness).

    Numeric cases get 100x their tolerance added, exact cases get +1; both
    must flip the case to "fail" on a correct build.
    """
    matched = False
    corrupted: list[IdentityCase] = []
    for case in cases:
        if case.id != case_id:
            corrupted.append(case)
            continue
        matched = True
        if case.kind == "exact":
            def bad_rhs(orig=case.rhs):
                return orig() + 1
        else:
            def bad_rhs(orig=case.rhs, bump=100.0 * case.tol):
                value, _ = _eval_side(orig)
                return float(value) + bump
        corrupted.append(
            IdentityCase(
                id=case.id,
                description=case.description + " [corrupted]",
                lhs=case.lhs,
                rhs=bad_rhs,
                kind=case.kind,
                tol=case.tol,
                criterion=case.criterion,
                source=case.source,
            )
        )
    if not matched:
        raise KeyError(f"no case with id {case_id!r}")
    return corrupted


# --------------------------------------------------------------------------
# Builtin cases
# --------------------------------------------------------------------------

_INNER_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _log_power_integral(p: int) -> QuadratureResult:
    """int_0^1 log(t)^p/(1-t) dt by direct quadrature: 2 zeta(3) at p = 2,
    -6 zeta(4) at p = 3."""
    return integrate(
        lambda t: np.log(t) ** p / (1.0 - t), 0.0, 1.0, 1e-12, vectorized=True
    )


def _neg_half_log_cubed() -> float:
    """-1/2 int_0^1 log(u)^3/(1-u) du, the first piece of the 17/4 split."""
    result = _log_power_integral(3)
    if not result.converged:
        raise QuadratureError("log^3 reference integral did not converge", result)
    return -0.5 * result.value


def _landen_max_residual() -> float:
    """Worst two-path disagreement for Li_2(-(1-u)/u) on 1000 grid points.

    The stable form is compared against an independent polylog evaluation,
    which is only possible where the raw argument lies in [-1, 0], hence
    the grid on [0.51, 0.999]. Both sides are evaluated over the whole grid
    as arrays.
    """
    lo, hi = 0.51, 0.999
    u = lo + (hi - lo) * np.arange(1000) / 999.0
    direct = polylog_array(2, -(1.0 - u) / u)
    stable = dilog_neg_ratio(u)
    return float(np.max(np.abs(direct - stable)))


def builtin_registry() -> list[IdentityCase]:
    """All shipped identity cases (parameter families expanded per point)."""
    cases: list[IdentityCase] = []

    # Exact binomial moment identity, p! * sum C(n,k)(-1)^k/k^p against the
    # monomial-moment expansion of the integral form.
    for n in range(1, 13):
        for p in range(1, 5):
            cases.append(
                IdentityCase(
                    id=f"binomial-exact/n={n},p={p}",
                    description=(
                        f"p! * alternating binomial sum equals the moment "
                        f"expansion of the beta-log integral (n={n}, p={p})"
                    ),
                    lhs=lambda n=n, p=p: factorial(p) * alt_binomial_sum(n, p),
                    rhs=lambda n=n, p=p: moment_integral_exact(n, p),
                    kind="exact",
                    source="binomial moment identity",
                )
            )

    # p = 1 specialisation: the alternating sum is exactly -H_n.
    for n in range(1, 61):
        cases.append(
            IdentityCase(
                id=f"altsum-harmonic/n={n}",
                description=f"sum C({n},k)(-1)^k/k equals -H_{n} exactly",
                lhs=lambda n=n: alt_binomial_sum(n, 1),
                rhs=lambda n=n: -harmonic_exact(n, 1),
                kind="exact",
                source="binomial moment identity, p = 1",
            )
        )

    two_zeta3 = lambda: 2.0 * zeta(3)
    half_zeta2_sq = lambda: 0.5 * zeta(2) ** 2
    dedoelder = lambda: 17.0 / 4.0 * zeta(4)

    cases += [
        IdentityCase(
            id="euler-q2-series",
            description="sum H_n/n^2 = 2 zeta(3), accelerated series path",
            lhs=lambda: eulersums.sum_series(eulersums.EulerSumSpec(1, 2)),
            rhs=two_zeta3,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="Euler, 1775",
        ),
        IdentityCase(
            id="euler-q2-integral",
            description="sum H_n/n^2 = 2 zeta(3), polylog integral path",
            lhs=lambda: eulersums.sum_via_integral(2),
            rhs=two_zeta3,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="Euler, 1775",
        ),
        IdentityCase(
            id="euler-q2-quadrature",
            description="int_0^1 log(t)^2/(1-t) dt = 2 zeta(3), direct quadrature",
            lhs=lambda: _log_power_integral(2),
            rhs=two_zeta3,
            kind="numeric",
            tol=1e-11,
            criterion="abs",
            source="Euler, 1775",
        ),
        IdentityCase(
            id="euler-q3-series",
            description="sum H_n/n^3 = zeta(2)^2/2, accelerated series path",
            lhs=lambda: eulersums.sum_series(eulersums.EulerSumSpec(1, 3)),
            rhs=half_zeta2_sq,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="classical",
        ),
        IdentityCase(
            id="euler-q3-integral",
            description="sum H_n/n^3 = zeta(2)^2/2, polylog integral path",
            lhs=lambda: eulersums.sum_via_integral(3),
            rhs=half_zeta2_sq,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="classical",
        ),
    ]

    # Odd-exponent closed forms against the series.
    for p in (1, 2, 3):
        cases.append(
            IdentityCase(
                id=f"gp-closed/p={p}",
                description=(
                    f"zeta combination for sum H_n/n^{2 * p + 1} "
                    f"matches the accelerated series"
                ),
                lhs=lambda p=p: eulersums.sum_gp_closed_form(p),
                rhs=lambda p=p: eulersums.sum_series(
                    eulersums.EulerSumSpec(1, 2 * p + 1)
                ),
                kind="numeric",
                tol=1e-10,
                criterion="rel",
                source="Georghiou and Philippou, 1983",
            )
        )
    for p in (1, 2):
        cases.append(
            IdentityCase(
                id=f"gp-integral/p={p}",
                description=(
                    f"polylog integral for sum H_n/n^{2 * p + 1} "
                    f"matches the zeta combination"
                ),
                lhs=lambda p=p: eulersums.sum_via_integral(2 * p + 1, tol=1e-10),
                rhs=lambda p=p: eulersums.sum_gp_closed_form(p),
                kind="numeric",
                tol=1e-9,
                criterion="rel",
                source="Georghiou and Philippou, 1983",
            )
        )

    for u in _INNER_GRID:
        cases.append(
            IdentityCase(
                id=f"inner-integral/u={u}",
                description=(
                    f"closed form Li_2(-(1-u)/u)/(1-u) of the inner integral "
                    f"matches quadrature at u={u}"
                ),
                lhs=lambda u=u: eulersums.inner_integral(u),
                rhs=lambda u=u: eulersums.inner_integral_quadrature(u, tol=1e-11),
                kind="numeric",
                tol=1e-10,
                criterion="abs",
                source="elementary antiderivative",
            )
        )

    cases += [
        IdentityCase(
            id="landen-grid",
            description=(
                "dilogarithm transformation residual, two independent paths, "
                "1000 points on [0.51, 0.999]"
            ),
            lhs=_landen_max_residual,
            rhs=lambda: 0.0,
            kind="numeric",
            tol=1e-12,
            criterion="abs",
            source="Landen, 1780",
        ),
        IdentityCase(
            id="ref-log3-integral",
            description="int_0^1 log(u)^3/(1-u) du = -6 zeta(4)",
            lhs=lambda: _log_power_integral(3),
            rhs=lambda: -6.0 * zeta(4),
            kind="numeric",
            tol=1e-11,
            criterion="abs",
            source="classical",
        ),
        IdentityCase(
            id="dedoelder-halflog3",
            description="-1/2 int_0^1 log(u)^3/(1-u) du = 3 zeta(4)",
            lhs=_neg_half_log_cubed,
            rhs=lambda: 3.0 * zeta(4),
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="classical",
        ),
        IdentityCase(
            id="dedoelder-series",
            description="sum [H_n]^2/n^2 = 17/4 zeta(4), accelerated series",
            lhs=lambda: eulersums.sum_series(eulersums.EulerSumSpec(2, 2)),
            rhs=dedoelder,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="de Doelder, 1991",
        ),
        IdentityCase(
            id="dedoelder-outer",
            description=(
                "sum [H_n]^2/n^2 = 17/4 zeta(4), reduced 1-D integral with "
                "the stable dilogarithm form"
            ),
            lhs=lambda: eulersums.quadratic_sum_q2_via_outer(tol=1e-10),
            rhs=dedoelder,
            kind="numeric",
            tol=1e-10,
            criterion="rel",
            source="de Doelder, 1991",
        ),
        IdentityCase(
            id="dedoelder-2d",
            description="sum [H_n]^2/n^2 = 17/4 zeta(4), raw 2-D quadrature",
            lhs=lambda: eulersums.quadratic_sum_double_integral(2, tol=1e-8),
            rhs=dedoelder,
            kind="numeric",
            tol=1e-8,
            criterion="abs",
            source="de Doelder, 1991",
        ),
        IdentityCase(
            id="open-q3-2d",
            description=(
                "2-D quadrature of the q=3 double integral against the "
                "series for sum [H_n]^2/n^3 (no closed form asserted)"
            ),
            lhs=lambda: eulersums.quadratic_sum_double_integral(3, tol=1e-8),
            rhs=lambda: eulersums.sum_series(eulersums.EulerSumSpec(2, 3)),
            kind="numeric",
            tol=1e-6,
            criterion="abs",
            source="open case, series as reference",
        ),
        IdentityCase(
            id="zeta-product",
            description="zeta(2)^2 = 5/2 zeta(4) (used by the 17/4 reduction)",
            lhs=lambda: zeta(2) ** 2,
            rhs=lambda: 2.5 * zeta(4),
            kind="numeric",
            tol=1e-14,
            criterion="abs",
            source="classical",
        ),
    ]

    ids = [c.id for c in cases]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate case ids in the builtin registry")
    return cases


@lru_cache(maxsize=1)
def _builtin_cases() -> tuple[IdentityCase, ...]:
    """The builtin cases as one immutable tuple, for run_suite's default."""
    return tuple(builtin_registry())
