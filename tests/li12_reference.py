"""Li_1 and Li_2 branch by branch: the reference for the bit-identity battery.

These are specfun's order-1 and order-2 formulas in their per-branch form:
each branch is its own kernel, called on its own points of an array (a
boolean split, then a scatter into the result), a float takes the one
branch it lies in. specfun evaluates the same operations as one elementwise
formula over every point, so each double must match these to the bit.
`mismatches()` runs the battery and is importable in a subprocess, so the
same check runs at reduced numpy dispatch levels.
"""

import math

import numpy as np

from eulersum import specfun
from eulersum.constants import zeta


def _lib(x):
    return np if isinstance(x, np.ndarray) else math


def _piecewise(x, pieces):
    if not isinstance(x, np.ndarray):
        return next(kernel(x) for condition, kernel in pieces if condition)
    out = np.empty_like(x)
    for condition, kernel in pieces:
        if condition.any():
            out[condition] = kernel(x[condition])
    return out


def _series(u):
    """Li_2(x), |x| <= 1/2, from u = -log(1-x): u + w (-1/4 + u P(w)), w = u^2."""
    coeffs = specfun._dilog_coeffs()
    w = u * u
    acc = coeffs[0] * w + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * w + c
    return u + w * (-0.25 + u * acc)


def reflection(t):
    """Li_2(1 - t), 0 < t < 1/2: zeta(2) + u log t - Li_2(t), u = -log(1-t)."""
    u = -_lib(t).log1p(-t)
    return zeta(2) + u * _lib(t).log(t) - _series(u)


def polylog(s, x):
    """Li_1(x) for x in [-1, 1), Li_2(x) for x in [-1, 1]."""
    if s == 1:
        return -_lib(x).log1p(-x)
    near_one = lambda x: reflection(1.0 - x)
    return _piecewise(x, (
        (abs(x) <= 0.5, lambda x: _series(polylog(1, x))),
        ((0.5 < x) & (x < 1.0), near_one),
        ((-1.0 < x) & (x < -0.5), lambda x: 0.5 * polylog(2, x * x) - near_one(-x)),
        (x == 1.0, lambda x: zeta(2)),
        (x == -1.0, lambda x: -(1.0 - 0.5) * zeta(2)),
    ))


def polylog_one_minus(s, t):
    """Li_s(1 - t), s = 1 or 2, for t in [0, 1] (t > 0 at s = 1)."""
    near_one = (lambda t: -_lib(t).log(t)) if s == 1 else reflection
    return _piecewise(t, (
        (t >= 0.5, lambda t: polylog(s, 1.0 - t)),
        ((0.0 < t) & (t < 0.5), near_one),
        (t == 0.0, lambda t: zeta(s)),
    ))


def dilog_neg_ratio(u):
    """Li_2(-(1-u)/u) = -log(u)^2/2 - Li_2(1-u) for u in (0, 1]."""
    log_u = _lib(u).log(u)
    return -0.5 * log_u * log_u - polylog_one_minus(2, u)


def _points():
    """Points of [0, 1]: 0, 1/2 and 1 with their neighbours, 2^-53 and
    1 - 2^-53, subnormals, t down to 1e-300, and random points, uniform and
    log-uniform."""
    rng = np.random.default_rng(43)
    edges = [0.0, 0.5, 1.0]
    near = [np.nextafter(e, d) for e in edges for d in (-1.0, 2.0)]
    special = [*edges, *near, 2.0**-53, 1.0 - 2.0**-53, 5e-324, 1e-310,
               2.0**-1022, 1e-300, 1e-200, 1e-17, 1e-16, 0.25, 0.75]
    points = np.concatenate([special, rng.uniform(0.0, 1.0, 600),
                             10.0 ** -rng.uniform(0.0, 300.0, 200)])
    return points[(0.0 <= points) & (points <= 1.0)]


def cases():
    """(label, entry point, reference, points): the rewritten paths on their
    domains, signed zeros included."""
    t = _points()
    x = np.concatenate([t, -t, [-0.0]])
    return [
        ("polylog_array(1)", lambda x: specfun.polylog_array(1, x),
         lambda x: polylog(1, x), x[x < 1.0]),
        ("polylog_array(2)", lambda x: specfun.polylog_array(2, x),
         lambda x: polylog(2, x), x),
        ("polylog_one_minus(1)", lambda t: specfun.polylog_one_minus(1, t),
         lambda t: polylog_one_minus(1, t), t[t > 0.0]),
        ("polylog_one_minus(2)", lambda t: specfun.polylog_one_minus(2, t),
         lambda t: polylog_one_minus(2, t), np.concatenate([t, [-0.0]])),
        ("dilog_neg_ratio", specfun.dilog_neg_ratio, dilog_neg_ratio, t[t > 0.0]),
    ]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def mismatches() -> dict:
    """Per case and form (array, 2-D block, float), how many doubles differ
    from the reference bit for bit; an empty dict when none does."""
    found = {}
    for label, entry, reference, points in cases():
        block = points[: points.size // 30 * 30].reshape(-1, 30)
        forms = {
            "array": (entry(points), reference(points)),
            "2-D": (entry(block), reference(block)),
            "float": ([entry(p) for p in points.tolist()],
                      [reference(p) for p in points.tolist()]),
        }
        for form, (got, want) in forms.items():
            differ = int(np.count_nonzero(_bits(got) != _bits(want)))
            if differ or np.shape(got) != np.shape(want):
                found[f"{label} {form}"] = differ
    return found
