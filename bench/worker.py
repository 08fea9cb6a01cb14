"""Runs one workload in a fresh interpreter and prints one JSON line.

run.py starts this file with PYTHONPATH leading to the package sources;
it is not meant to be run by hand, but can be:

    python3 bench/worker.py suite-warm --seconds 5 [--trace] [--inject-failure ID]
    python3 bench/worker.py eval-mix --seed 1 --seconds 5 [--trace]
    python3 bench/worker.py verify [--trace]

suite-warm and eval-mix are single-threaded closed loops: the next call
is made only when the previous one has returned. With --trace they
alternate untraced and traced passes over the same work, so the two can be
compared for the tracing overhead; the first traced pass is cold and is
kept out of the per-layer shares. verify runs one cold `eulersum verify
--output json` in-process (traced or not) and exits; run.py starts one
process per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import evalmix
from tracer import Tracer, aggregate, layer_metrics

# The seed registry has 131 cases; a report with fewer is not a full
# verification, so a build that drops cases cannot look faster.
MIN_CASES = 131

# With --trace: at least this many passes on each side; spans are kept
# for at most this many warm traced passes, to bound memory.
MIN_PASSES = 3
MAX_TRACED_PASSES = 5

# Blocks of the eval-mix stream replayed by each traced pass.
TRACE_BLOCKS = 12

VERIFY_ARGV = ["verify", "--output", "json"]


def report_ok(summary: dict) -> bool:
    """A full verification with every case passed."""
    return (
        summary.get("total", 0) >= MIN_CASES
        and summary.get("passed") == summary["total"]
        and summary.get("failed") == 0
        and summary.get("errored") == 0
    )


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _signature(report) -> list:
    return [(c.id, c.status, c.abs_residual, c.rel_residual) for c in report.cases]


class Suite:
    """suite-warm: run_suite() with its default arguments, checked per call."""

    def __init__(self, eulersum, inject: str | None):
        self.eulersum = eulersum
        self.inject = inject
        self.expected = None
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer: Tracer | None = None) -> None:
        es = self.eulersum
        if self.inject:
            cases = es.registry.inject_failure(es.builtin_registry(), self.inject)
            report = es.run_suite(cases=cases)
        else:
            report = es.run_suite()
        sig = _signature(report)
        if self.expected is None:  # the warm-up call is the reference
            self.expected = sig if report_ok(report.summary) else []
        self.attempted += 1
        if sig != self.expected:
            self.failed += 1


class EvalMix:
    """eval-mix: the seeded point-evaluation stream."""

    def __init__(self, eulersum, seed: int):
        self.eulersum = eulersum
        self.seed = seed
        self.prefix = evalmix.take(seed, TRACE_BLOCKS * evalmix.BLOCK_SIZE)
        self.first_values: list | None = None
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer: Tracer | None = None) -> None:
        values = []
        for req in self.prefix:
            try:
                if tracer is None:
                    values.append(evalmix.call(self.eulersum, req))
                else:
                    tracer.op = req.index
                    with tracer.span(f"request.{req.kind}"):
                        values.append(evalmix.call(self.eulersum, req))
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                values.append(repr(exc))
        self.attempted += len(values)
        if self.first_values is None:
            self.first_values = values  # checked against the oracle by run.py
        else:  # later passes must repeat the first one exactly
            self.failed += sum(a != b for a, b in zip(values, self.first_values))


class Verify:
    """One `eulersum verify --output json`, in-process, stdout captured."""

    def __init__(self, eulersum):
        self.cli = eulersum.cli
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer: Tracer | None = None) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(VERIFY_ARGV)
        self.attempted += 1
        try:
            summary = json.loads(buf.getvalue())["summary"]
        except (ValueError, KeyError):
            summary = {}
        if code != 0 or not report_ok(summary):
            self.failed += 1


def timed_loop(eulersum, workload: str, seed: int, seconds: float, inject) -> dict:
    """The untraced closed loop whose latencies are the end-to-end figures."""
    clock = time.perf_counter_ns
    if workload == "suite-warm":
        suite = Suite(eulersum, inject)
        suite.run_pass()  # warm-up and reference
        suite.attempted = suite.failed = 0
        lat = []
        start = clock()
        deadline = start + int(seconds * 1e9)
        while True:
            t0 = clock()
            suite.run_pass()
            t1 = clock()
            lat.append(t1 - t0)
            if t1 >= deadline:
                break
        return {"latencies_ns": lat, "loop_ns": t1 - start,
                "attempted": suite.attempted, "failed": suite.failed}

    values, lat = [], []
    start = clock()
    deadline = start + int(seconds * 1e9)
    for req in evalmix.stream(seed):
        t0 = clock()
        try:
            value = evalmix.call(eulersum, req)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            value = repr(exc)
        t1 = clock()
        lat.append(t1 - t0)
        values.append(value)
        if (req.index + 1) % evalmix.BLOCK_SIZE == 0 and t1 >= deadline:
            break
    return {"latencies_ns": lat, "loop_ns": t1 - start, "values": values}


def _new_tracer(eulersum) -> Tracer:
    return Tracer(eulersum, getattr(eulersum.constants, "S_MAX", 20))


def _traced_pass(tracer: Tracer, runner):
    """One pass with the wrappers installed, under a root span it returns."""
    tracer.install()
    try:
        with tracer.span("pass") as sp:
            runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return sp


def traced_loop(eulersum, runner, seconds: float, spans_path: str | None) -> dict:
    """Alternate untraced and traced passes; aggregate the warm traced ones."""
    tracer = _new_tracer(eulersum)
    clock = time.perf_counter_ns
    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    warm_pass_ids: set = set()

    _traced_pass(tracer, runner)  # cold: first calls and level tables, not in the shares
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline or len(traced_ns) < MIN_PASSES:
        t0 = clock()
        runner.run_pass()
        untraced_ns.append(clock() - t0)
        kept = len(tracer.spans)
        sp = _traced_pass(tracer, runner)
        traced_ns.append(sp.ns)
        if len(warm_pass_ids) < MAX_TRACED_PASSES:
            warm_pass_ids.add(sp.sid)
        else:  # timed only; its spans would add nothing but memory
            del tracer.spans[kept:]

    layers = layer_metrics(aggregate(tracer.spans, warm_pass_ids), len(warm_pass_ids))
    if spans_path:
        tracer.write_tsv(spans_path)
    out = {
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
        "layers": layers,
        "zeta_first_calls": tracer.zeta_first_calls,
        "spans_per_pass": len(tracer.spans) / (len(warm_pass_ids) + 1),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "probe": list(evalmix.high_order_probe(eulersum)),
    }
    if isinstance(runner, EvalMix):
        out["values"] = runner.first_values
    return out


def verify_once(eulersum, trace: bool, spans_path: str | None) -> dict:
    """One cold verify pass in this fresh process, traced or not."""
    runner = Verify(eulersum)
    if not trace:
        t0 = time.perf_counter_ns()
        runner.run_pass()
        return {"pass_ns": time.perf_counter_ns() - t0, "failed": runner.failed}
    tracer = _new_tracer(eulersum)
    sp = _traced_pass(tracer, runner)
    if spans_path:
        tracer.write_tsv(spans_path)
    return {
        "pass_ns": sp.ns,
        "failed": runner.failed,
        "layers": layer_metrics(aggregate(tracer.spans, {sp.sid}), 1),
        "zeta_first_calls": tracer.zeta_first_calls,
        "spans_per_pass": len(tracer.spans),
        "probe": list(evalmix.high_order_probe(eulersum)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("suite-warm", "eval-mix", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-failure", default=None)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args(argv)

    import eulersum
    import eulersum.cli  # noqa: F401 - not imported by the package itself

    if args.workload == "verify":
        out = verify_once(eulersum, args.trace, args.spans)
    elif args.trace:
        runner = (
            Suite(eulersum, args.inject_failure)
            if args.workload == "suite-warm"
            else EvalMix(eulersum, args.seed)
        )
        out = traced_loop(eulersum, runner, args.seconds, args.spans)
    else:
        out = timed_loop(eulersum, args.workload, args.seed, args.seconds, args.inject_failure)
    out["rss_mb"] = _rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
