"""Spans around the package's public functions, recorded from outside.

install() replaces every traced public function with a recording wrapper
in every module namespace that holds it: registry, eulersums and cli bind
polylog, integrate, zeta and friends by `from ... import`, so patching the
defining module alone would miss those calls. uninstall() puts the
originals back. Nothing under src/ is edited.

A span is (id, parent id, op id, name, start ns, end ns, attribute). Each
thread keeps its own stack of open spans; a span opened on a thread with
an empty stack (a run_suite pool worker) takes the innermost open span of
the installing thread as its parent. Spans stay in memory until the run
ends; aggregate() turns them into per-layer figures and write_tsv() dumps
them.

exactmath.bernoulli is deliberately not wrapped: it is a memoised table
read called from the inner series loops of specfun and eulersums, a
wrapper would cost more than the call, and its time stays in its callers'
self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# Public functions traced, by defining module.
TRACED = {
    "constants": ("zeta", "zeta_table", "euler_gamma"),
    "exactmath": ("binomial", "harmonic_exact", "alt_binomial_sum", "moment_integral_exact"),
    "specfun": (
        "polylog",
        "polylog_eval",
        "polylog_one_minus",
        "dilog_neg_ratio",
        "harmonic_float",
    ),
    "quad": ("integrate", "integrate2d"),
    "eulersums": (
        "sum_series",
        "sum_gp_closed_form",
        "sum_via_integral",
        "integral_representation_integrand",
        "inner_integral",
        "inner_integral_quadrature",
        "quadratic_sum_q2_via_outer",
        "outer_integrand",
        "double_integral_kernel",
        "quadratic_sum_double_integral",
    ),
    "registry": ("builtin_registry", "run_case", "run_suite", "inject_failure"),
    "cli": ("main",),
}

# The case-id families of the builtin registry (the id up to the first '/').
FAMILIES = (
    "binomial-exact",
    "altsum-harmonic",
    "euler-q2-series",
    "euler-q2-integral",
    "euler-q2-quadrature",
    "euler-q3-series",
    "euler-q3-integral",
    "gp-closed",
    "gp-integral",
    "inner-integral",
    "landen-grid",
    "ref-log3-integral",
    "dedoelder-halflog3",
    "dedoelder-series",
    "dedoelder-outer",
    "dedoelder-2d",
    "open-q3-2d",
    "zeta-product",
)

POLYLOG_BRANCHES = ("taylor", "logexp", "negsq", "closed")


def _polylog_branch(args, kwargs, result) -> str:
    """Which branch of specfun.polylog an argument pair selects."""
    s = args[0] if args else kwargs.get("s")
    x = args[1] if len(args) > 1 else kwargs.get("x")
    if s in (0, 1) or x in (1.0, -1.0):
        return "closed"
    if abs(x) <= 0.5:
        return "taylor"
    return "logexp" if x > 0.0 else "negsq"


def _case_family(args, kwargs, result) -> str:
    case = args[0] if args else kwargs["case"]
    return case.id.split("/", 1)[0]


def _quad_outcome(args, kwargs, result) -> tuple:
    return (result.evaluations, not result.converged)


class Tracer:
    """Span recorder for one process; create it, install(), run, uninstall()."""

    def __init__(self, package, zeta_table_max: int):
        self._package = package
        self._zeta_table_max = zeta_table_max
        self.spans: list[tuple] = []
        self.op = 0
        self.zeta_first_calls = 0
        self._zeta_seen: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._installed: list[tuple] = []

    # ---------------------------------------------------------------- spans

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _zeta_attr(self, args, kwargs, result) -> Optional[str]:
        s = args[0] if args else kwargs.get("s")
        if s > self._zeta_table_max and s not in self._zeta_seen:
            self._zeta_seen.add(s)
            self.zeta_first_calls += 1
            return "first"
        return None

    def wrap(self, name: str, fn: Callable, attr: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        main_stack = self._main_stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, tracer.op, name, t0, clock(), "raised"))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans.append(
                (sid, parent, tracer.op, name, t0, t1,
                 attr(args, kwargs, result) if attr else None)
            )
            return result

        return wrapper

    def span(self, name: str) -> "_Span":
        """A harness span (a pass or a request) around traced calls."""
        return _Span(self, name)

    # --------------------------------------------------- install/uninstall

    def install(self) -> None:
        import importlib

        # Read by every wrapper, so bound before the first wrap().
        self._main_stack = self._stack()
        attrs = {
            "specfun.polylog": _polylog_branch,
            "registry.run_case": _case_family,
            "quad.integrate": _quad_outcome,
            "quad.integrate2d": _quad_outcome,
            "constants.zeta": self._zeta_attr,
        }
        pkg = self._package.__name__
        namespaces = [self._package] + [
            importlib.import_module(f"{pkg}.{m}") for m in TRACED
        ]
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"{pkg}.{module_name}")
            for fname in names:
                original = getattr(module, fname)
                full = f"{module_name}.{fname}"
                wrapper = self.wrap(full, original, attrs.get(full))
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        setattr(ns, fname, wrapper)
                        self._installed.append((ns, fname, original))

    def uninstall(self) -> None:
        for ns, fname, original in reversed(self._installed):
            setattr(ns, fname, original)
        self._installed.clear()

    # ------------------------------------------------------------- output

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tattr\n")
            for sid, parent, op, name, t0, t1, attr in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{t0}\t{t1}\t{attr}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tr = self._tracer
        stack = tr._stack()
        self._parent = stack[-1] if stack else 0
        self.sid = next(tr._ids)
        stack.append(self.sid)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self._tracer
        self.end = time.perf_counter_ns()
        tr._stack().pop()
        tr.spans.append((self.sid, self._parent, tr.op, self._name, self._t0, self.end, None))
        self.ns = self.end - self._t0
        return False


# ---------------------------------------------------------------- analysis


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def _empty_stats() -> dict:
    return {"calls": 0, "incl_ns": 0, "self_ns": 0, "dur_ns": 0, "evals": 0,
            "failed": 0, "attrs": Counter(), "attr_ns": Counter()}


def aggregate(spans: list[tuple], pass_ids: set) -> dict:
    """Per-name totals over the spans under the given pass root spans.

    For each name: calls, outermost inclusive ns (calls nested in a span of
    the same name are not added twice), self ns (duration minus the union
    of the child spans), and attribute counts. 1-D integrate calls made by
    integrate2d are booked under "quad.integrate@2d" so the 1-D figures
    cover only top-level 1-D quadrature.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def ancestors(sid):
        parent = by_id[sid][1]
        while parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][1]

    stats: dict[str, dict] = defaultdict(_empty_stats)
    wall_ns = 0
    for s in spans:
        sid, _, _, name, t0, t1, attr = s
        if sid in pass_ids:
            wall_ns += t1 - t0
            continue
        chain = list(ancestors(sid))
        if not any(a[0] in pass_ids for a in chain):
            continue
        if name == "quad.integrate" and any(a[3] == "quad.integrate2d" for a in chain):
            name = "quad.integrate@2d"
        st = stats[name]
        st["calls"] += 1
        dur = t1 - t0
        st["dur_ns"] += dur
        if not any(a[3] == s[3] for a in chain):
            st["incl_ns"] += dur
        st["self_ns"] += dur - _union_ns([(c[4], c[5]) for c in children[sid]], t0, t1)
        if isinstance(attr, tuple):
            st["evals"] += attr[0]
            st["failed"] += int(attr[1])
        elif attr is not None:
            st["attrs"][attr] += 1
            st["attr_ns"][attr] += dur
    return {"wall_ns": wall_ns, "names": dict(stats)}


def layer_metrics(agg: dict, passes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from one aggregate.

    Counts are per pass; times are a percentage of the traced passes' wall
    time, so a layer the workload never calls reads 0 rather than a time.
    """
    names = agg["names"]
    wall = agg["wall_ns"] or 1

    def get(name):
        return names.get(name) or _empty_stats()

    def pct(ns):
        return 100.0 * ns / wall

    def per_pass(n):
        return n / passes

    m: dict[str, float] = {}
    zeta = get("constants.zeta")
    m["constants.zeta.calls"] = per_pass(zeta["calls"])
    m["constants.zeta.pct"] = pct(zeta["incl_ns"])

    exact = [v for k, v in names.items() if k.startswith("exactmath.")]
    m["exactmath.calls"] = per_pass(sum(v["calls"] for v in exact))
    m["exactmath.pct"] = pct(sum(v["incl_ns"] for v in exact))

    poly = get("specfun.polylog")
    for branch in POLYLOG_BRANCHES:
        m[f"specfun.polylog.calls.{branch}"] = per_pass(poly["attrs"][branch])
    m["specfun.polylog.pct"] = pct(poly["incl_ns"])
    for fname in ("polylog_one_minus", "dilog_neg_ratio"):
        st = get(f"specfun.{fname}")
        m[f"specfun.{fname}.calls"] = per_pass(st["calls"])
        m[f"specfun.{fname}.pct"] = pct(st["incl_ns"])

    evals = ns = 0
    for fname in ("integrate", "integrate2d"):
        st = get(f"quad.{fname}")
        m[f"quad.{fname}.calls"] = per_pass(st["calls"])
        m[f"quad.{fname}.evals"] = per_pass(st["evals"])
        m[f"quad.{fname}.pct"] = pct(st["incl_ns"])
        m[f"quad.{fname}.failed"] = per_pass(st["failed"])
        evals += st["evals"]
        ns += st["incl_ns"]
    m["quad.evals_per_ms"] = evals / (ns / 1e6) if ns else 0.0

    series = get("eulersums.sum_series")
    m["eulersums.sum_series.calls"] = per_pass(series["calls"])
    m["eulersums.sum_series.pct"] = pct(series["incl_ns"])
    m["eulersums.sum_via_integral.pct"] = pct(get("eulersums.sum_via_integral")["incl_ns"])
    m["eulersums.quadratic_sum_double_integral.pct"] = pct(
        get("eulersums.quadratic_sum_double_integral")["incl_ns"]
    )

    case_spans = get("registry.run_case")
    for family in FAMILIES:
        m[f"registry.family.{family}.pct"] = pct(case_spans["attr_ns"][family])
    suite = get("registry.run_suite")
    m["registry.run_suite.self_pct"] = pct(suite["self_ns"])
    m["registry.concurrency"] = (
        case_spans["dur_ns"] / suite["dur_ns"] if suite["dur_ns"] else 0.0
    )
    m["cli.main.self_pct"] = pct(get("cli.main")["self_ns"])
    return m
