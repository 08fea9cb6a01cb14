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
Jeyabalan and Li (2005): one table per pass, _pass_nodes, holds the
abscissas of both halves of (0, 1) and each level's slice and weights,
and a level's weighted sum is one matrix-vector product. The first pass
covers levels 1 to 3 (75 nodes): every call runs levels 1 and 2 (the test
needs a level difference), and the integrals of the verification suite
all run level 3 as well. Convergence is still tested level by level, so
the values, estimates and stopping levels are those of one pass per
level. Every result, converged or failed, counts the points evaluated, so
a rule that stops or fails at level 2 counts the 75 nodes of the first
pass.

The 1-D rule and the outer rule of the iterated 2-D rule (Takahasi and
Mori, 1974) differ only in how they evaluate a pass. Each hands one level
loop, _rule, an evaluator of the values at a pass's nodes; _rule takes
each 1-D or outer level's weighted sum and accumulates and tests it in
Python floats (the same IEEE operations on one value, without a numpy
call each). The 1-D evaluator is one integrand call. The 2-D evaluator,
the vectorised row kernel _integrate_rows, integrates the inner integrals
of all outer nodes of the pass as one block and takes each inner level's
weighted sums itself, over (rows still running) x (new inner nodes).
Every row keeps its place in the block's arrays and stops running, with
its value and estimate in place, once its inner integral passes its
convergence test, relative to the inner value. The inner rule stays one
level per call: many rows stop at inner level 2, and a first inner pass
of levels 1 to 3 would evaluate level-3 nodes that those rows never need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .exactmath import _check_integer

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate",
    "integrate2d",
    "MAX_LEVEL",
]

MAX_LEVEL = 12

# Nodes closer to an endpoint than this are never generated; their weights
# sit below the underflow threshold anyway.
_MIN_DELTA = 1e-300

_EPS = 2.0 ** -52

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


def _level_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, weight) arrays for the nodes new at this level.

    Level 1 carries every node of the h = 1/2 mesh; higher levels carry the
    odd multiples of their step. delta is the unit-interval distance from
    either endpoint (the rule is symmetric); the weight is
    pi cosh(t) delta (1 - delta), with the center node t = 0 halved because
    the symmetric pair sum would count it twice.

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
    return delta, weight


def _interval_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights of one level on (0, 1), in table order: the
    low side delta, the whole table (_MIN_DELTA <= delta <= 1/2), then the
    mirrored high side 1 - delta, a prefix of the table: it drops a node
    that rounds onto 1, whose twin delta keeps the mass near 0."""
    deltas, weights = _level_table(level)
    keep_hi = 1.0 - deltas < 1.0
    x = np.concatenate((deltas, 1.0 - deltas[keep_hi]))
    w = np.concatenate((weights, weights[keep_hi]))
    return x, w


# Levels of the first evaluation pass: every call runs levels 1 and 2, and
# every integral of the verification suite runs level 3 as well.
_OPENING_LEVELS = 3


@lru_cache(maxsize=2 * MAX_LEVEL)
def _pass_nodes(levels: tuple[int, ...]):
    """The node table of one evaluation pass over (0, 1): the abscissas of
    its levels as one array, in level order, and per level (level, slice of
    that array, weights). Built once per pass and read-only."""
    parts = [_interval_nodes(level) for level in levels]
    x = np.concatenate([xl for xl, _ in parts])
    x.flags.writeable = False
    table, start = [], 0
    for level, (_, w) in zip(levels, parts):
        w.flags.writeable = False
        table.append((level, slice(start, start + w.size), w))
        start += w.size
    return x, tuple(table)


def _passes(max_level: int):
    """The _pass_nodes table of each evaluation pass, in order: levels
    1..min(_OPENING_LEVELS, max_level) first, then one level each."""
    last = min(_OPENING_LEVELS, max_level)
    yield _pass_nodes(tuple(range(1, last + 1)))
    for level in range(last + 1, max_level + 1):
        yield _pass_nodes((level,))


def _check_tol(tol: float) -> None:
    if not tol > 0.0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol}")


def _block(values, shape: tuple[int, ...]) -> np.ndarray:
    """Integrand values as a float array of the given shape."""
    values = np.asarray(values, dtype=float)
    # An integrand that returns a constant gives a single value.
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _rule(
    tol: float, max_level: int, evaluate: Callable, what: str
) -> QuadratureResult:
    """The tanh-sinh level loop of both rules over (0, 1), in Python floats.

    For each pass (x, table) of _passes, evaluate(x) returns the
    evaluations made, the value at every node of x, each node's error
    bound (None if none) and the first failed node as (index, message),
    or None. Only _rule reads the table: a level's sum and error are the
    weighted sums of the values and bounds over its new nodes, and the rule
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
    for x, table in _passes(max_level):
        evaluated, values, errors, failure = evaluate(x)
        done += evaluated
        failed, message = failure or (x.size, "")
        for level, part, w in table:
            total = np.einsum("ij,j->i", values[None, part], w).item()
            if failed < part.stop or not math.isfinite(total):
                reason = message if failed < part.stop else _NON_FINITE
                return QuadratureResult(prev, math.inf, done, False, reason)
            acc += total
            if errors is not None:
                acc_err += np.einsum("ij,j->i", errors[None, part], w).item()
            h = 2.0**-level
            value = h * acc
            if level > 1:
                estimate = abs(value - prev) + h * acc_err
                reported = max(estimate, _EPS * (1.0 + abs(value)))
                if reported < tol:
                    return QuadratureResult(value, reported, done, True)
            prev = value
    message = f"no convergence within {max_level} {what} levels"
    return QuadratureResult(prev, estimate, done, False, message)


def _integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    max_level: int,
    us: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray, tuple[int, str] | None]:
    """Tanh-sinh over t in (0, 1) of f(t, u) for every u in us at once: the
    inner rule of integrate2d, one row per u.

    Each level calls f once with a row of its new nodes t, both halves of
    the interval, against the column of the u still running, and weights
    the block by one matrix-vector product. The rows keep their places in
    the value and estimate arrays: a row stops, and drops out of the
    running rows, at the level where it passes the convergence test or
    fails, so its value and estimate are those of the rule run on that row
    alone, up to summation order (from level 11, over 8192 nodes, numpy's
    einsum can sum a block of several rows in another order than one row).
    The test is relative to the row's value: reported < tol *
    max(1, |value|). Returns _rule's evaluator tuple: the evaluations,
    per-row values and estimates, and the lowest failed row, in node order,
    as (row, "inner integral failed at u=...: reason"), or None.
    """
    acc = np.zeros(us.size)
    value = np.zeros(us.size)
    estimate = np.full(us.size, math.inf)
    first = (us.size, "")  # the lowest failed row and its reason
    live = np.arange(us.size)  # the rows still running, in ascending order
    evaluations = 0
    for level in range(1, max_level + 1):
        if live.size == 0:
            break
        x, ((_, _, w),) = _pass_nodes((level,))
        evaluations += live.size * x.size
        block = _block(f(x[None, :], us[live, None]), (live.size, x.size))
        # einsum runs its own loop: numpy's BLAS would add about 0.3 MB of
        # resident buffers on its first call, for no gain at these sizes.
        sums = np.einsum("ij,j->i", block, w)

        finite = np.isfinite(sums)
        if not finite.all():
            # A failed row keeps the previous level's value.
            failed = live[~finite]
            estimate[failed] = math.inf
            first = min(first, (int(failed[0]), _NON_FINITE))
            live, sums = live[finite], sums[finite]
        acc[live] += sums
        previous = value[live]
        value[live] = level_value = 2.0**-level * acc[live]
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
        message = f"no convergence within {max_level} refinement levels"
        first = min(first, (int(live[0]), message))
    row, reason = first
    if row == us.size:
        return evaluations, value, estimate, None
    return evaluations, value, estimate, (
        row, f"inner integral failed at u={float(us[row])!r}: {reason}")


def integrate(
    f: Callable[[np.ndarray], np.ndarray], tol: float, *, max_level: int = MAX_LEVEL
) -> QuadratureResult:
    """Integrate f over (0, 1) to absolute tolerance tol.

    f takes a numpy array of abscissas and returns the array of values (or
    one constant); a scalar function can be passed as
    np.vectorize(f, otypes=[float]). f is never evaluated at 0 or 1;
    singularities of log-power type at the endpoints are fine. max_level is
    the last level tried, 1 <= max_level <= MAX_LEVEL.

    f is called once on the nodes of levels 1..min(3, max_level) and then
    once per further level. evaluations counts every node evaluated, so a
    result that converges or fails at level 2 reports the whole first call.

    A non-finite integrand value at an interior node yields a failure
    result (converged False, infinite error estimate), never an exception.
    """
    _check_tol(tol)
    # Level L adds about 4.6 * 2^L nodes: a level past MAX_LEVEL would
    # cost memory and time without bound before any convergence test.
    _check_integer("integrate", "max_level", max_level, 1, MAX_LEVEL)

    def evaluate(x):
        return x.size, _block(f(x), x.shape), None, None

    return _rule(tol, max_level, evaluate, "refinement")


def integrate2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    *,
    max_level: int = MAX_LEVEL,
) -> QuadratureResult:
    """Iterated tanh-sinh integral of f(t, u) over the open unit square.

    The outer rule runs over u with the inner integral over t resolved to
    tol/10 at every outer node (inner convergence is tested relative to the
    inner value, since the inner magnitude can grow like log^3 of the
    distance to the boundary). The reported error estimate adds the
    weighted sum of inner estimates to the outer level difference, and
    convergence is declared on that combined figure. Any inner failure
    makes the whole result non-converged; the message names the first
    failing outer node in node order: by level, and within a level the
    nodes u = delta from 1/2 toward 0, then their mirrors 1 - delta.

    All outer nodes of a pass are integrated together, those of outer
    levels 1 to 3 as one block: each inner level evaluates f once on the
    (outer rows x inner nodes) block of rows still running, and a row
    stops running when it meets its inner test or fails, so each row's
    inner result is that of the inner rule run on its outer node alone (up
    to summation order, see _integrate_rows). evaluations counts every point
    evaluated, so a result that converges or fails at outer level 2
    includes the rows of outer level 3.

    f(t, u) must broadcast over numpy arrays: it is called with a row of t
    values against a column of u values.
    """
    _check_tol(tol)
    _check_integer("integrate2d", "max_level", max_level, 1, MAX_LEVEL)
    rows = partial(_integrate_rows, f, tol / 10.0, max_level)
    return _rule(tol, max_level, rows, "outer refinement")
