"""Tanh-sinh (double-exponential) quadrature on (0, 1) and the unit square,
the domains of every integral of the package.

The change of variable x = 1 / (1 + exp(-pi sinh t)) pushes the trapezoid
nodes toward 0 and 1 at a doubly exponential rate, which integrates
endpoint singularities of log-power type to near machine precision
without any interval splitting. Levels halve the trapezoid step
(h = 2^-level, level = 1..12); previously evaluated nodes are reused, and
the error estimate is the difference between the last two levels.

Nodes are stored as the distance delta from the nearer endpoint together
with a weight, so positions stay meaningful down to delta ~ 1e-300: the
low half of (0, 1) is delta itself, and a mirrored node 1 - delta that
would round onto 1 is dropped (integrands with endpoint singularities
cannot be evaluated there, and the skipped weight is negligible) while
its twin delta keeps contributing.

Each level's whole node set is evaluated in one pass, as in Bailey,
Jeyabalan and Li (2005): one read-only table per level, _level_nodes,
built on first use, holds its abscissas on both halves of (0, 1) and
their weights; every rule reads it, and a level's weighted sum is one
matrix-vector product. Every rule, the 1-D rule and both rules of the
2-D rule, runs the same passes: the first, _opening_nodes, covers levels
1 to 3 (75 nodes), and each later pass one level, up to MAX_LEVEL. Every
call runs levels 1 and 2 (the test needs a level difference), and the
integrals of the verification suite all run level 3 as well, inner ones
included. Convergence is still tested level by level, so the values,
estimates and stopping levels are those of one pass per level. Every
result, converged or failed, counts the points evaluated, so a rule that
stops or fails at level 2 counts the 75 nodes of the first pass.

The 1-D rule and the outer rule of the iterated 2-D rule (Takahasi and
Mori, 1974) differ only in how they evaluate a pass. Each hands one level
loop, _rule, an evaluator of the values at a pass's nodes; _rule takes
each 1-D or outer level's weighted sum and accumulates and tests it in
Python floats (the same IEEE operations on one value, without a numpy
call each). The 1-D evaluator is one integrand call. The 2-D evaluator,
the vectorised row kernel _integrate_rows, integrates the inner integrals
of all outer nodes of the pass as one block, over (rows still running) x
(nodes of the inner pass), and takes each inner level's weighted sums
itself. Each row's results stay at its index in full-size arrays; a row
stops running once its inner integral passes its convergence test,
relative to the inner value, or fails. Every kernel of the package takes
all 75 outer rows of the opening block to inner level 3: one kernel call
on 75 x 75 points. A row that stops at inner level 2 counts the 75 nodes
of its opening pass, so the paper's raw kernels, before u = t v,
evaluate 117,858 points (q = 2) and 6,735 (q = 3).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate",
    "integrate2d",
    "MAX_LEVEL",
]

MAX_LEVEL = 12
_OPENING = range(1, 4)  # levels of the first evaluation pass

# Nodes closer to an endpoint than this are never generated; their weights
# sit below the underflow threshold anyway.
_MIN_DELTA = 1e-300

_EPS = 2.0 ** -52
_MAX_DOUBLE = sys.float_info.max

_NON_FINITE = "non-finite integrand value at an interior node"


@dataclass
class QuadratureResult:
    """Outcome of one quadrature call.

    converged is the only trust signal: when it is False the value is the
    best available estimate and abs_error_estimate may be infinite.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool
    message: str = ""


class QuadratureError(RuntimeError):
    """Raised by callers that need a converged value and did not get one."""

    def __init__(self, message: str, result: QuadratureResult):
        super().__init__(message)
        self.result = result


def _map(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to each element of x, as a float array."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


@lru_cache(maxsize=MAX_LEVEL)
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights, read-only, of the nodes new at this level.

    Level 1 carries every node of the h = 1/2 mesh; higher levels carry the
    odd multiples of their step. delta is the unit-interval distance from
    either endpoint (the rule is symmetric); the weight is
    pi cosh(t) delta (1 - delta), with the center node t = 0 halved because
    the symmetric pair sum would count it twice. The abscissas are the low
    side delta, every node of the level (_MIN_DELTA <= delta <= 1/2), then
    the high side 1 - delta over a prefix of the low side: it drops a
    node that rounds onto 1, whose twin delta keeps the mass near 0.

    The elementary functions come from the math module, mapped over the
    whole level: delta = 1 / (1 + exp(pi sinh t)) turns a one-ulp change
    in sinh into hundreds of ulps near the endpoints, so the nodes do not
    depend on how numpy's vector sinh rounds.
    """
    h = 2.0**-level
    first, step = (0, 1) if level == 1 else (1, 2)
    # Every t with pi sinh(t) < 700; delta < 1e-304 beyond, and the mask
    # below cuts at _MIN_DELTA.
    t = h * np.arange(first, math.asinh(700.0 / math.pi) / h, step)
    y = math.pi * _map(math.sinh, t)
    delta = 1.0 / (1.0 + _map(math.exp, y))
    keep = delta >= _MIN_DELTA
    t, delta = t[keep], delta[keep]
    weight = math.pi * _map(math.cosh, t) * delta * (1.0 - delta)
    if level == 1:
        weight[0] *= 0.5
    high = 1.0 - delta < 1.0
    x = np.concatenate((delta, 1.0 - delta[high]))
    w = np.concatenate((weight, weight[high]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=1)
def _opening_nodes() -> np.ndarray:
    """The abscissas of levels 1..3 as one read-only array, in level order."""
    x = np.concatenate([_level_nodes(level)[0] for level in _OPENING])
    x.flags.writeable = False
    return x


def _passes():
    """(abscissas, levels) of each evaluation pass: levels 1..3 first, then
    one level each up to MAX_LEVEL, on _level_nodes' own array."""
    yield _opening_nodes(), _OPENING
    for level in range(_OPENING.stop, MAX_LEVEL + 1):
        yield _level_nodes(level)[0], (level,)


def _check_tol(owner: str, tol: float, floor: float = 0.0) -> None:
    """The package's one rule for tolerances: raise ValueError, naming the
    owner, unless tol is an int or a float (a numpy scalar too; a bool and
    an array are not) above 0, at least floor and at most the largest
    double (NaN and inf are not)."""
    value = tol
    if type(value) is not float:
        if isinstance(value, np.generic):
            value = value.item()  # a Python number, but a long double stays one
        if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
            value = math.nan
    if not (0.0 < value <= _MAX_DOUBLE and value >= floor):
        rule = f"tol >= {floor}" if floor else "tol > 0"
        raise ValueError(f"{owner} requires {rule}, got {tol!r}")


def _block(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Integrand values as a float array of the given shape, never complex."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} requires a real integrand, got complex values")
    values = np.asarray(values, dtype=float)
    try:  # an integrand that returns a constant gives a single value
        return values if values.shape == shape else np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"{name} requires integrand values that broadcast to the "
                         f"nodes' shape {shape}, got shape {values.shape}") from None


def _rule(tol: float, evaluate: Callable, what: str) -> QuadratureResult:
    """The tanh-sinh level loop of both rules over (0, 1), in Python floats.

    For each pass (x, levels) of _passes, evaluate(x) returns the
    evaluations made, the value at every node of x, each node's error
    bound (None if none) and the first failed node as (index, message),
    or None. x holds the levels' nodes in order, each level's as many as
    its _level_nodes weights: a level's sum and error are the weighted
    sums of the values and bounds over its new nodes, and the rule
    fails at the level of the first failed node or at a non-finite sum. A
    level's estimate is its difference from the previous level plus the
    weighted error bounds, floored at one rounding of the value (a
    difference of exactly zero certifies nothing below that); the rule
    converges when that is below tol.

    Convergence is tested level by level, so a pass of several levels stops
    at the same level, with the same value and estimate, as one pass per
    level would. The evaluations reported are those made, whether the rule
    converges or fails: a rule that stops inside a pass counts the whole
    pass. On a failure the previous level's value stands.
    """
    acc = acc_err = prev = 0.0
    estimate = math.inf
    done = 0  # evaluations made
    for x, levels in _passes():
        evaluated, values, errors, failure = evaluate(x)
        done += evaluated
        failed, message = failure or (x.size, "")
        stop = 0
        for level in levels:
            w = _level_nodes(level)[1]
            start, stop = stop, stop + w.size
            total = np.einsum("ij,j->i", values[None, start:stop], w).item()
            if failed < stop or not math.isfinite(total):
                reason = message if failed < stop else _NON_FINITE
                return QuadratureResult(prev, math.inf, done, False, reason)
            acc += total
            if errors is not None:
                acc_err += np.einsum("ij,j->i", errors[None, start:stop], w).item()
            h = 2.0**-level
            value = h * acc
            if level > 1:
                estimate = abs(value - prev) + h * acc_err
                reported = max(estimate, _EPS * (1.0 + abs(value)))
                if reported < tol:
                    return QuadratureResult(value, reported, done, True)
            prev = value
    message = f"no convergence within {MAX_LEVEL} {what} levels"
    return QuadratureResult(prev, estimate, done, False, message)


def _integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    us: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray, tuple[int, str] | None]:
    """Tanh-sinh over t in (0, 1) of f(t, u) for every u in us at once: the
    inner rule of integrate2d, one row per u.

    The inner rule runs _passes() as the 1-D rule does: f is called once
    on the nodes of levels 1 to 3, both halves of the interval, against the
    column of every u, then once per later level against the column of the
    u still running. Each row keeps its index in the value, weighted-sum
    and estimate arrays. Each level's row sums are one matrix-vector
    product over that level's columns of the pass's block. Rows are tested
    level by level: a row stops, and drops out of the running rows, at the
    level where it passes the convergence test or fails, so its value and
    estimate are those of the rule run on that row alone, up to summation
    order (from level 11, over 8192 nodes, numpy's einsum can sum a block
    of several rows in another order than one row); a failed row keeps the
    previous level's value. The test is relative to the row's value:
    reported < tol * max(1, |value|). Returns _rule's evaluator tuple: the
    evaluations, per-row values and estimates, and the lowest failed row,
    in node order, as (row, "inner integral failed at u=...: reason"), or
    None.
    """
    value, acc = np.zeros(us.size), np.zeros(us.size)  # per row: value, sum
    estimate = np.full(us.size, math.inf)
    first = (us.size, "")  # the lowest failed row and its reason
    live = np.arange(us.size)  # the rows still running, in ascending order
    evaluations = 0
    for x, levels in _passes():
        if live.size == 0:
            break
        rows = live  # the rows of this pass's block
        evaluations += rows.size * x.size
        block = _block(f(x[None, :], us[rows, None]), (rows.size, x.size),
                       "integrate2d")
        stop = 0
        for level in levels:
            w = _level_nodes(level)[1]
            start, stop = stop, stop + w.size
            # einsum runs its own loop: numpy's BLAS would add about 0.3 MB of
            # resident buffers on its first call, for no gain at these sizes.
            sums = np.einsum("ij,j->i", block[:, start:stop], w)
            if live.size < rows.size:  # a row left during this pass
                sums = sums[np.searchsorted(rows, live)]
            finite = np.isfinite(sums)
            if not finite.all():
                # A failed row keeps the previous level's value.
                estimate[live[~finite]] = math.inf
                first = min(first, (int(live[~finite][0]), _NON_FINITE))
                live, sums = live[finite], sums[finite]
            acc[live] = level_sum = acc[live] + sums
            previous = value[live]
            value[live] = level_value = 2.0**-level * level_sum
            if level > 1:
                diff = np.abs(level_value - previous)
                size = np.abs(level_value)
                # Roundoff floor: a level difference of exactly zero does not
                # certify anything below one rounding of the result.
                reported = np.maximum(diff, _EPS * (1.0 + size))
                passed = reported < tol * np.maximum(1.0, size)
                estimate[live] = np.where(passed, reported, diff)
                live = live[~passed]

    if live.size:
        message = f"no convergence within {MAX_LEVEL} refinement levels"
        first = min(first, (int(live[0]), message))
    row, reason = first
    failure = None if row == us.size else (
        row, f"inner integral failed at u={float(us[row])!r}: {reason}")
    return evaluations, value, estimate, failure


def integrate(f: Callable[[np.ndarray], np.ndarray], tol: float) -> QuadratureResult:
    """Integrate f over (0, 1) to absolute tolerance tol.

    f takes a numpy array of abscissas and returns the array of values (or
    one constant); a scalar function can be passed as
    np.vectorize(f, otypes=[float]). f is never evaluated at 0 or 1;
    singularities of log-power type at the endpoints are fine.

    f is called once on the nodes of levels 1..3 and then once per further
    level, up to MAX_LEVEL. evaluations counts every node evaluated, so a
    result that converges or fails at level 2 reports the whole first call.

    A non-finite integrand value at an interior node yields a failure
    result (converged False, infinite error estimate), never an exception;
    a complex value raises ValueError.
    """
    _check_tol("integrate", tol)

    def evaluate(x):
        return x.size, _block(f(x), x.shape, "integrate"), None, None

    return _rule(tol, evaluate, "refinement")


def integrate2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], tol: float
) -> QuadratureResult:
    """Iterated tanh-sinh integral of f(t, u) over the open unit square.

    The outer rule runs over u with the inner integral over t resolved to
    tol/10 at every outer node, each rule to at most MAX_LEVEL levels
    (inner convergence is tested relative to the inner value, since the
    inner magnitude can grow like log^3 of the distance to the boundary).
    The reported error estimate adds the weighted sum of inner estimates
    to the outer level difference, and convergence is declared on that
    combined figure. Any inner failure makes the whole result
    non-converged; the message names the first failing outer node in node
    order: by level, and within a level the nodes u = delta from 1/2
    toward 0, then their mirrors 1 - delta.

    All outer nodes of a pass are integrated together, those of outer
    levels 1 to 3 as one block, and the inner rule runs the passes of the
    1-D rule: f is evaluated once on every row of the block against the
    inner nodes of levels 1 to 3, then once per later inner level on the
    rows still running. A row stops running, in place, when it meets its
    inner test or fails, so its inner result is that of the inner rule run
    on its outer node alone (up to summation order, see _integrate_rows).
    evaluations counts every point evaluated, so a result that converges
    or fails at outer level 2 includes the rows of outer level 3, and each
    row counts at least the 75 inner nodes of its opening pass.

    f(t, u) must broadcast over numpy arrays: it is called with a row of t
    values against a column of u values. A complex value raises ValueError.
    """
    _check_tol("integrate2d", tol)
    return _rule(tol, partial(_integrate_rows, f, tol / 10.0), "outer refinement")
