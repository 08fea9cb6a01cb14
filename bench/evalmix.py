"""The seeded request stream of the eval-mix workload and its oracles.

The stream is an endless sequence of point evaluations of the public
functions behind `eulersum eval` (plus polylog_one_minus), drawn from one
seed. It is cut into blocks of BLOCK_SIZE requests with a fixed mix of
kinds in shuffled order, so every prefix of the stream has nearly the same
share of cheap (polylog, zeta) and expensive (series, quadrature) requests
and a run-level median lands inside one cost cluster.

This module imports nothing but the standard library, so the worker that
times the requests can use it; the mpmath oracles are imported lazily by
Oracle and only ever run in the parent process, outside every timed
region.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

# Requests per block, by kind. The first four kinds cost microseconds, the
# last two milliseconds; see NOTES.md for the measured clusters.
BLOCK_MIX = (
    ("polylog", 6),
    ("polylog_one_minus", 2),
    ("zeta", 3),
    ("gp", 1),
    ("hsum", 2),
    ("integral", 2),
)
BLOCK_SIZE = sum(n for _, n in BLOCK_MIX)

# polylog orders are drawn up to MAX_DRAWN_ORDER. Above MAX_POLYLOG_ORDER
# the program raises OverflowError on both expansion branches today
# (factorial(s-1) no longer fits a double, ROADMAP item 4); those requests
# stay in the stream and count as failed, see known_defect().
MAX_POLYLOG_ORDER = 171
MAX_DRAWN_ORDER = 200
PROBE_ORDERS = range(MAX_POLYLOG_ORDER + 1, MAX_DRAWN_ORDER + 1)

# Tolerances the timed calls run with: the library defaults.
SERIES_TOL = 1e-10
INTEGRAL_TOL = 1e-10

# The error bounds specfun.POLYLOG_ABS_ERROR and constants.
# CERTIFIED_ABS_ERROR state at the seed. They are fixed here, not read from
# the package, so that loosening a stated bound cannot pass the benchmark.
POLYLOG_ABS_ERROR = 1e-14
ZETA_ABS_ERROR = 2.5e-16


class Request(NamedTuple):
    index: int
    kind: str
    params: tuple


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _polylog_order(rng: random.Random) -> int:
    u = rng.random()
    if u < 0.1:
        return rng.randint(0, 1)
    if u < 0.7:
        return rng.randint(2, 20)
    return rng.randint(21, MAX_DRAWN_ORDER)


def _polylog_params(rng: random.Random) -> tuple:
    s = _polylog_order(rng)
    branch = rng.randrange(5)
    if branch == 0:  # endpoints; x = 1 diverges below order 2
        x = 1.0 if s >= 2 and rng.random() < 0.5 else -1.0
    elif branch == 1:  # Taylor series, |x| <= 1/2
        x = rng.uniform(-0.5, 0.5)
    elif branch == 2:  # expansion around x = 1, down to 1 - 1e-12
        x = 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)
    else:  # argument squaring on (-1, -1/2)
        x = -(1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0))
    if s <= 1 and x > 0.9:
        # Li_0 and Li_1 grow without bound toward x = 1, where the
        # absolute error bound cannot apply; keep their values O(1).
        x = 0.9 * x
    return (s, x)


def _params(kind: str, rng: random.Random) -> tuple:
    if kind == "polylog":
        return _polylog_params(rng)
    if kind == "polylog_one_minus":
        return (rng.randint(2, MAX_POLYLOG_ORDER), 10.0 ** -rng.uniform(0.0, 300.0))
    if kind == "zeta":
        u = rng.random()
        if u < 0.6:
            return (rng.randint(2, 20),)  # the import-time table
        if u < 0.995:
            return (_log_uniform_int(rng, 21, 200),)
        # Rare: a first call here costs 3-140 ms, and a few dozen per run
        # already dominate the run-to-run spread of ops_per_s.
        return (_log_uniform_int(rng, 201, 2000),)
    if kind == "gp":
        return (rng.randint(1, 30),)
    if kind == "hsum":
        return (rng.randint(1, 2), rng.randint(2, 40))
    if kind == "integral":
        return (rng.randint(2, 40),)
    raise ValueError(f"unknown request kind {kind!r}")


def stream(seed: int) -> Iterator[Request]:
    """The endless request stream for one seed; equal seeds, equal streams."""
    rng = random.Random(seed)
    kinds = [kind for kind, count in BLOCK_MIX for _ in range(count)]
    index = 0
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield Request(index, kind, _params(kind, rng))
            index += 1


def take(seed: int, count: int) -> list[Request]:
    it = stream(seed)
    return [next(it) for _ in range(count)]


def call(eulersum, request: Request) -> float:
    """Evaluate one request through the package's public namespace.

    Names are looked up on every call so that wrappers installed by the
    tracer are honoured.
    """
    p = request.params
    kind = request.kind
    if kind == "polylog":
        return eulersum.polylog(p[0], p[1])
    if kind == "polylog_one_minus":
        return eulersum.polylog_one_minus(p[0], p[1])
    if kind == "zeta":
        return eulersum.zeta(p[0])
    if kind == "gp":
        return eulersum.sum_gp_closed_form(p[0])
    if kind == "hsum":
        return eulersum.sum_series(eulersum.EulerSumSpec(p[0], p[1]), tol=SERIES_TOL)
    if kind == "integral":
        return eulersum.sum_via_integral(p[0], tol=INTEGRAL_TOL)
    raise ValueError(f"unknown request kind {kind!r}")


def known_defect(request: Request) -> bool:
    """A polylog request that fails at the seed: order > 171, 1/2 < |x| < 1."""
    if request.kind != "polylog":
        return False
    s, x = request.params
    return s > MAX_POLYLOG_ORDER and 0.5 < abs(x) < 1.0


def high_order_probe(eulersum) -> tuple[int, int]:
    """(failed, attempted) for polylog at orders 172..200 on the x -> 1 branch.

    Every order in this range is in the function's accepted domain; an
    answer or a clean ValueError would be acceptable, any other exception
    counts as failed. Traced runs of every workload report it, untimed.
    """
    failed = 0
    for s in PROBE_ORDERS:
        try:
            value = eulersum.polylog(s, 0.9)
        except ValueError:
            continue
        except Exception:  # noqa: BLE001 - the defect being counted
            failed += 1
            continue
        if not math.isfinite(value):
            failed += 1
    return failed, len(PROBE_ORDERS)


# --------------------------------------------------------------------------
# Oracles (parent process only)
# --------------------------------------------------------------------------

_DPS = 30
_PARTIAL_SUM_TERMS = 2000


def _mp():
    import mpmath

    mpmath.mp.dps = _DPS
    return mpmath


def _euler_s1(mp, q: int):
    """Euler (1775): S(1;q) = (1 + q/2) z(q+1) - 1/2 sum_{j=1}^{q-2} z(j+1) z(q-j)."""
    total = (1 + mp.mpf(q) / 2) * mp.zeta(q + 1)
    for j in range(1, q - 1):
        total -= mp.zeta(j + 1) * mp.zeta(q - j) / 2
    return total


def _s2(mp, q: int):
    """S(2;q) = sum H_n^2 / n^q from closed forms, else a bounded partial sum."""
    z = mp.zeta
    if q == 2:
        return mp.mpf(17) / 4 * z(4)
    if q == 3:
        return mp.mpf(7) / 2 * z(5) - z(2) * z(3)
    if q == 4:
        return mp.mpf(97) / 24 * z(6) - 2 * z(3) ** 2
    # q >= 5: the tail beyond N terms is below (log N + 1)^2 / ((q-1) N^(q-1)),
    # under 2e-12 for N = 2000 and q = 5, a fiftieth of the series tol.
    return mp.fsum(h2 * mp.mpf(n) ** -q for n, h2 in enumerate(_squared_harmonics(mp), 1))


_H2: list = []


def _squared_harmonics(mp) -> list:
    if not _H2:
        h = mp.mpf(0)
        for n in range(1, _PARTIAL_SUM_TERMS + 1):
            h += mp.mpf(1) / n
            _H2.append(h * h)
    return _H2


class Oracle:
    """Reference values and acceptance bounds, memoised by request params."""

    def __init__(self):
        self._mp = _mp()
        self._cache: dict[tuple, tuple[float, float]] = {}

    def expect(self, kind: str, params: tuple) -> tuple[float, float]:
        """(reference value, allowed absolute error) for one request."""
        key = (kind, params)
        if key not in self._cache:
            self._cache[key] = self._compute(kind, params)
        return self._cache[key]

    def _compute(self, kind: str, p: tuple) -> tuple[float, float]:
        mp = self._mp
        if kind == "polylog":
            return float(mp.polylog(p[0], mp.mpf(p[1]))), POLYLOG_ABS_ERROR
        if kind == "polylog_one_minus":
            x = 1 - mp.mpf(p[1])  # rounding x moves Li_s by < 1e-27
            return float(mp.polylog(p[0], x)), POLYLOG_ABS_ERROR
        if kind == "zeta":
            return float(mp.zeta(p[0])), ZETA_ABS_ERROR
        if kind == "gp":
            ref = _euler_s1(mp, 2 * p[0] + 1)
            return float(ref), SERIES_TOL * max(1.0, abs(float(ref)))
        if kind == "hsum":
            m, q = p
            ref = _euler_s1(mp, q) if m == 1 else _s2(mp, q)
            return float(ref), SERIES_TOL * max(1.0, abs(float(ref)))
        if kind == "integral":
            ref = _euler_s1(mp, p[0])
            return float(ref), INTEGRAL_TOL * max(1.0, abs(float(ref)))
        raise ValueError(f"unknown request kind {kind!r}")

    def check(self, request: Request, value: float, perturbed: bool = False) -> bool:
        """Whether value is within bound of the reference.

        perturbed=True shifts the reference by ten bounds, the negative
        control: every correct answer must then be rejected.
        """
        ref, bound = self.expect(request.kind, request.params)
        if perturbed:
            ref += 10.0 * bound
        return math.isfinite(value) and abs(value - ref) <= bound
