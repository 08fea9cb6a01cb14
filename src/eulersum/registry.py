"""The identity catalogue: every verified equality as a named case.

Each case carries two evaluation closures (left and right side) and a
tolerance: 0 makes an exact case, whose sides are integer pairs
(numerator, denominator), a positive one a numeric case, with float sides.
Exact sides pass iff they cross-multiply equal. Every other pair of sides,
unequal exact ones as Fractions, meets one rule: |l - r| at most tol
("abs") or tol * max(|l|, |r|) ("rel"), so at tol 0 only equal sides pass.
Running a case never raises: evaluator exceptions become status "error".
One loop checks each side as it returns: a quadrature side adds its
evaluation count and errors if it did not converge. The builtin cases are
one tuple, built at import: a case per identity, and a run of cases per
parameter family. Each side is a lambda that calls its route by name when
the case runs, a family's grid values bound as its defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from math import factorial, gcd, inf, isfinite
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
    """One verifiable equality, judged by run_case against its own tol.

    A tol of 0 makes an exact case, whose closures return integer pairs
    (numerator, denominator), the denominator positive and the pair not
    necessarily reduced; a positive tol makes a numeric case. A closure may
    return a QuadratureResult, whose convergence flag and evaluation count
    are honoured.
    """

    id: str
    description: str
    lhs: Callable[[], object]
    rhs: Callable[[], object]
    tol: float = 0.0
    criterion: str = "abs"  # "abs" | "rel"
    source: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.tol < inf:  # also rejects NaN
            raise ValueError(f"case {self.id!r} needs finite tol >= 0, got {self.tol}")
        if self.criterion not in ("abs", "rel"):
            raise ValueError(f"unknown residual criterion {self.criterion!r}")

    @property
    def kind(self) -> str:
        """"exact" for a tol of 0, "numeric" otherwise."""
        return "numeric" if self.tol else "exact"


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
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "message"
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


def run_case(case: IdentityCase) -> CaseResult:
    """Evaluate both sides of a case and judge them against its own tol.

    Each side is checked as it returns, and the first side that fails ends
    the case: a quadrature that did not converge, an exact side that is not
    two ints (a bool is not one) with a positive denominator, or a NaN or
    infinite numeric side. An errored case reports the evaluations of the
    sides it ran, a failed quadrature's included.

    Exact sides (a, b) and (c, d) are equal iff a d == c b; equal ones
    print as their value reduced once, by gcd, in Fraction's form ("-11/6",
    "-6", "0"). Equal sides pass with residuals 0.0. Any other sides,
    unequal exact ones as Fractions, meet the module's one rule: |l - r|
    is tested exactly, and it and its ratio to max(|l|, |r|) are each
    rounded once to the residuals.
    """
    tol, evaluations, values = case.tol, 0, []
    start = time.perf_counter()
    try:
        for side, fn in (("lhs", case.lhs), ("rhs", case.rhs)):
            value = fn()
            if isinstance(value, QuadratureResult):
                evaluations += value.evaluations
                if not value.converged:
                    why = value.message or "quadrature did not converge"
                    raise QuadratureError(why, value)
                value = value.value
            if not tol:
                if not _is_pair(value):
                    raise TypeError(_PAIR_ERROR)
            elif not isfinite(value := float(value)):  # NaN judges nothing
                raise ValueError(f"non-finite {side}: {value}")
            values.append(value)
        lhs, rhs = values
        if not tol:  # integer pairs: only unequal ones become Fractions
            if lhs[0] * rhs[1] == rhs[0] * lhs[1]:
                lhs = rhs = _exact_str(*lhs)
            else:
                lhs, rhs = Fraction(*lhs), Fraction(*rhs)
        if lhs == rhs:  # equal sides need no arithmetic
            passed, abs_res, rel_res = True, 0.0, 0.0
        else:  # the exact diff, not its float, so at tol 0 only equality passes
            diff, size = abs(lhs - rhs), max(abs(lhs), abs(rhs))
            passed = diff <= (tol if case.criterion == "abs" else tol * max(1e-300, size))
            abs_res, rel_res = float(diff), float(diff / size)
            if not tol:
                lhs, rhs = str(lhs), str(rhs)
        status, message = ("pass" if passed else "fail"), ""
    except Exception as exc:  # evaluator failures are data, not control flow
        status, message = "error", f"{type(exc).__name__}: {exc}"
        lhs = rhs = abs_res = rel_res = None
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return CaseResult(case.id, status, lhs, rhs, abs_res, rel_res, tol,
                      evaluations, elapsed_ms, message)


_PAIR_ERROR = "exact case sides must evaluate to int pairs (numerator, denominator > 0)"


def _is_pair(value: object) -> bool:
    """Whether value is an exact side: a tuple of two ints, neither a bool,
    the second positive."""
    return (type(value) is tuple and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int and value[1] > 0)


def _exact_str(numerator: int, denominator: int) -> str:
    """numerator/denominator reduced, printed as str(Fraction) prints it."""
    g = gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def run_suite(
    id_prefix: Optional[str] = None, *, cases: Optional[list[IdentityCase]] = None
) -> VerificationReport:
    """Run all (or id-prefix filtered) cases in order and assemble the report.

    The report is ordered by case id, so two runs of the same build produce
    identical statuses and residuals. Cases run one after another: they
    are pure Python and numpy work under one interpreter lock, so a thread
    pool only adds scheduling overhead. Without `cases` it runs the builtin
    cases, built once at import; every call still evaluates both sides of
    every case, each judged only against its own tol.
    """
    if cases is None:
        cases = _CATALOGUE
    if id_prefix is not None:
        cases = [c for c in cases if c.id.startswith(id_prefix)]
    start = time.perf_counter()
    results = [run_case(c) for c in cases]
    suite_elapsed = (time.perf_counter() - start) * 1e3
    results.sort(key=lambda r: r.id)
    summary = {
        "total": len(results),
        "passed": sum(r.status == "pass" for r in results),
        "failed": sum(r.status == "fail" for r in results),
        "errored": sum(r.status == "error" for r in results),
    }
    return VerificationReport(results, summary, suite_elapsed)


def inject_failure(cases: list[IdentityCase], case_id: str) -> list[IdentityCase]:
    """Corrupt one case's right side (negative control for the harness).

    Numeric cases get 100x their tolerance added; an exact side (a, b)
    becomes (a + b, b), its value plus 1. Both must flip the case to "fail"
    on a correct build. A quadrature side keeps its QuadratureResult, value
    shifted: its evaluations and trust gate stay.
    """
    target = next((case for case in cases if case.id == case_id), None)
    if target is None:
        raise KeyError(f"no case with id {case_id!r}")
    shift = 100.0 * target.tol

    def bad_rhs():
        value = target.rhs()
        if isinstance(value, QuadratureResult):
            return replace(value, value=value.value + shift)
        if target.kind == "exact":
            numerator, denominator = value
            return numerator + denominator, denominator
        return value + shift

    corrupted = replace(
        target, description=target.description + " [corrupted]", rhs=bad_rhs
    )
    return [corrupted if case is target else case for case in cases]


# --------------------------------------------------------------------------
# Builtin cases
# --------------------------------------------------------------------------


def _factorial_times_alt_sum(n: int, p: int) -> tuple[int, int]:
    """p! alt_binomial_sum(n, p), as an integer pair."""
    numerator, denominator = alt_binomial_sum(n, p)
    return factorial(p) * numerator, denominator


def _minus_harmonic(n: int) -> tuple[int, int]:
    """-H_n, as an integer pair."""
    numerator, denominator = harmonic_exact(n, 1)
    return -numerator, denominator


def _log_power_integral(p: int) -> QuadratureResult:
    """int_0^1 log(t)^p/(1-t) dt by direct quadrature: 2 zeta(3) at p = 2,
    -6 zeta(4) at p = 3."""
    return integrate(lambda t: np.log(t) ** p / (1.0 - t), 1e-12)


def _integral_representation(q: int) -> QuadratureResult:
    """The quadrature of eulersums.sum_via_integral(q), as a result."""
    f = eulersums.integral_representation_integrand(q)
    return integrate(f, 1e-10)


def _series(m: int, q: int) -> float:
    return eulersums.sum_series(eulersums.EulerSumSpec(m, q))


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


_CATALOGUE = (
    # p! * sum C(n,k)(-1)^k/k^p against the monomial-moment expansion of
    # the integral form.
    *(IdentityCase(f"binomial-exact/n={n},p={p}",
                   "p! * alternating binomial sum equals the moment expansion of the "
                   f"beta-log integral (n={n}, p={p})",
                   lambda n=n, p=p: _factorial_times_alt_sum(n, p),
                   lambda n=n, p=p: moment_integral_exact(n, p),
                   source="binomial moment identity")
      for n in range(1, 13) for p in range(1, 5)),
    # p = 1 specialisation: the alternating sum is exactly -H_n.
    *(IdentityCase(f"altsum-harmonic/n={n}",
                   f"sum C({n},k)(-1)^k/k equals -H_{n} exactly",
                   lambda n=n: alt_binomial_sum(n, 1), lambda n=n: _minus_harmonic(n),
                   source="binomial moment identity, p = 1")
      for n in range(1, 61)),
    IdentityCase("euler-q2-series",
                 "sum H_n/n^2 = 2 zeta(3), accelerated series path",
                 lambda: _series(1, 2), lambda: 2.0 * zeta(3), 1e-10, "rel",
                 "Euler, 1775"),
    IdentityCase("euler-q2-integral",
                 "sum H_n/n^2 = 2 zeta(3), polylog integral path",
                 lambda: _integral_representation(2), lambda: 2.0 * zeta(3),
                 1e-10, "rel", "Euler, 1775"),
    IdentityCase("euler-q2-quadrature",
                 "int_0^1 log(t)^2/(1-t) dt = 2 zeta(3), direct quadrature",
                 lambda: _log_power_integral(2), lambda: 2.0 * zeta(3), 1e-11,
                 "abs", "Euler, 1775"),
    IdentityCase("euler-q3-series",
                 "sum H_n/n^3 = zeta(2)^2/2, accelerated series path",
                 lambda: _series(1, 3), lambda: 0.5 * zeta(2) ** 2, 1e-10, "rel",
                 "classical"),
    IdentityCase("euler-q3-integral",
                 "sum H_n/n^3 = zeta(2)^2/2, polylog integral path",
                 lambda: _integral_representation(3), lambda: 0.5 * zeta(2) ** 2,
                 1e-10, "rel", "classical"),
    # Odd-exponent closed forms against the series and the integral.
    *(IdentityCase(f"gp-closed/p={p}",
                   f"zeta combination for sum H_n/n^{q} matches the accelerated series",
                   lambda p=p: eulersums.sum_gp_closed_form(p),
                   lambda q=q: _series(1, q),
                   1e-10, "rel", "Georghiou and Philippou, 1983")
      for p, q in ((1, 3), (2, 5), (3, 7))),
    *(IdentityCase(f"gp-integral/p={p}",
                   f"polylog integral for sum H_n/n^{q} matches the zeta combination",
                   lambda q=q: _integral_representation(q),
                   lambda p=p: eulersums.sum_gp_closed_form(p),
                   1e-9, "rel", "Georghiou and Philippou, 1983")
      for p, q in ((1, 3), (2, 5))),
    *(IdentityCase(f"inner-integral/u={u}",
                   "closed form Li_2(-(1-u)/u)/(1-u) of the inner integral matches "
                   f"quadrature at u={u}",
                   lambda u=u: eulersums.inner_integral(u),
                   lambda u=u: eulersums.inner_integral_quadrature(u),
                   1e-10, "abs", "elementary antiderivative")
      for u in (0.1, 0.3, 0.5, 0.7, 0.9)),
    IdentityCase("landen-grid",
                 "dilogarithm transformation residual, two independent paths, "
                 "1000 points on [0.51, 0.999]",
                 lambda: _landen_max_residual(), lambda: 0.0, 1e-12, "abs",
                 "Landen, 1780"),
    IdentityCase("ref-log3-integral", "int_0^1 log(u)^3/(1-u) du = -6 zeta(4)",
                 lambda: _log_power_integral(3), lambda: -6.0 * zeta(4), 1e-11,
                 "abs", "classical"),
    IdentityCase("dedoelder-halflog3",
                 "-3/2 int_0^1 log(u)^2 log(1-u)/u du = 3 zeta(4)",
                 lambda: integrate(
                     lambda t: -1.5 * np.log(t) ** 2 * np.log1p(-t) / t, 1e-12),
                 lambda: 3.0 * zeta(4), 1e-10, "rel", "classical"),
    IdentityCase("dedoelder-series",
                 "sum [H_n]^2/n^2 = 17/4 zeta(4), accelerated series",
                 lambda: _series(2, 2), lambda: 17.0 / 4.0 * zeta(4), 1e-10, "rel",
                 "de Doelder, 1991"),
    IdentityCase("dedoelder-outer",
                 "sum [H_n]^2/n^2 = 17/4 zeta(4), reduced 1-D integral with the "
                 "stable dilogarithm form",
                 lambda: eulersums.quadratic_sum_q2_via_outer(),
                 lambda: 17.0 / 4.0 * zeta(4), 1e-10, "rel", "de Doelder, 1991"),
    IdentityCase("dedoelder-2d",
                 "sum [H_n]^2/n^2 = 17/4 zeta(4), 2-D quadrature after u = t v",
                 lambda: eulersums.quadratic_sum_double_integral(2),
                 lambda: 17.0 / 4.0 * zeta(4), 1e-8, "abs", "de Doelder, 1991"),
    IdentityCase("open-q3-2d",
                 "2-D quadrature of the q=3 double integral after u = t v, against the "
                 "series for sum [H_n]^2/n^3 (no closed form asserted)",
                 lambda: eulersums.quadratic_sum_double_integral(3),
                 lambda: _series(2, 3), 1e-6, "abs",
                 "open case, series as reference"),
    IdentityCase("zeta-product",
                 "zeta(2)^2 = 5/2 zeta(4) (used by the 17/4 reduction)",
                 lambda: zeta(2) ** 2, lambda: 2.5 * zeta(4), 1e-14, "abs",
                 "classical"),
)
if len({case.id for case in _CATALOGUE}) != len(_CATALOGUE):
    raise RuntimeError("duplicate case ids in the builtin registry")


def builtin_registry() -> list[IdentityCase]:
    """All shipped identity cases, in catalogue order, as a fresh list."""
    return list(_CATALOGUE)
