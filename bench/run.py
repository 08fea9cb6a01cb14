"""The eulersum benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload suite-warm|verify-cold|eval-mix \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run it from the root of a source checkout; it imports the package from
src/ and reads the metric list from BENCHMARK.json. With --trace 0 it
measures the end-to-end metrics with tracing off; with --trace 1 it makes
the separate traced run that gives the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --self-test runs the negative controls and the stream
reproducibility check and exits 0 only if each control is caught.

Spans of traced runs are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import evalmix  # noqa: E402
from worker import MIN_PASSES, report_ok  # noqa: E402

WORKLOADS = ("suite-warm", "verify-cold", "eval-mix")

# The tail percentile reported per workload: the highest round percentile
# with at least ten samples beyond it at the seed's sample counts (about
# 200 suite calls, 65 verify processes and 30000 requests in 30 s).
TAIL_PERCENTILE = {"suite-warm": 90, "verify-cold": 75, "eval-mix": 99}

# Set-up is what a fresh interpreter pays before the workload's first
# call: importing the package, plus building the registry where the
# workload runs the suite.
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 5
USES_REGISTRY = {"suite-warm": True, "verify-cold": True, "eval-mix": False}

# A whole run (set-up, workload, reference computation and checks) must
# end within 180 s, so a hung child is killed after this long (a worker
# gets its measuring time on top).
CHILD_TIMEOUT_S = 60

CONTROL_CASE = "euler-q2-series"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ helpers


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # Fixed string hashing, so set and dict layouts repeat across processes.
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout} s: {' '.join(argv)}") from exc


def _worker(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    proc = _run([sys.executable, str(BENCH / "worker.py"), *args], timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _check_checkout() -> dict:
    if not (SRC / "eulersum" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'eulersum'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"no {spec_path}")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def _prime() -> None:
    """One untimed import, so bytecode caches exist before anything is timed."""
    proc = _run([sys.executable, "-c", "import eulersum, eulersum.cli"])
    if proc.returncode != 0:
        raise BenchError(f"cannot import eulersum:\n{proc.stderr}")


# ---------------------------------------------------------------- set-up


def measure_setup_s(workload: str) -> float:
    """Median over fresh interpreters of import (+ registry build) time."""
    body = "eulersum.builtin_registry()\n" if USES_REGISTRY[workload] else ""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import eulersum\n"
        f"{body}"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = _run([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


IMPORT_ROWS = {
    # metric: (module as -X importtime prints it, column)
    "import.numpy_ms": ("numpy", "cumulative"),
    "import.constants_ms": ("eulersum.constants", "self"),
    "import.exactmath_ms": ("eulersum.exactmath", "self"),
    "import.registry_ms": ("eulersum.registry", "self"),
    "import.total_ms": ("eulersum", "cumulative"),
}


def measure_import_ms() -> dict:
    """Median per-module import times from `python -X importtime`."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_ROWS}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import eulersum"])
        if proc.returncode != 0:
            raise BenchError(f"importtime probe failed:\n{proc.stderr}")
        rows = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                rows[name.strip()] = (int(self_us), int(cum_us))
        for metric, (module, column) in IMPORT_ROWS.items():
            if module not in rows:
                raise BenchError(f"-X importtime printed no row for {module}")
            samples[metric].append(rows[module][0 if column == "self" else 1] / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


# ------------------------------------------------------------- workloads


def _verify_process(extra: list[str]) -> tuple[float, bool]:
    """One cold `python -m eulersum verify --output json`: (wall ms, ok)."""
    t0 = time.perf_counter()
    proc = _run([sys.executable, "-m", "eulersum", "verify", "--output", "json", *extra])
    wall_ms = (time.perf_counter() - t0) * 1e3
    try:
        ok = proc.returncode == 0 and report_ok(json.loads(proc.stdout)["summary"])
    except (ValueError, KeyError):
        ok = False
    return wall_ms, ok


def run_verify_cold(seconds: float, extra: list[str] = ()) -> dict:
    lat, failed = [], 0
    start = time.perf_counter()
    while True:
        ms, ok = _verify_process(list(extra))
        lat.append(ms)
        failed += not ok
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies_ms": lat, "loop_s": time.perf_counter() - start,
            "attempted": len(lat), "failed": failed}


def run_suite_warm(seconds: float, extra: list[str] = ()) -> dict:
    out = _worker(["suite-warm", "--seconds", str(seconds), *extra],
                  timeout=seconds + CHILD_TIMEOUT_S)
    return {"latencies_ms": [ns / 1e6 for ns in out["latencies_ns"]],
            "loop_s": out["loop_ns"] / 1e9,
            "attempted": out["attempted"], "failed": out["failed"]}


def failed_eval_requests(seed: int, values: list, perturbed: bool = False) -> list:
    """The eval-mix requests whose answer is outside its bound or missing."""
    try:
        oracle = evalmix.Oracle()
    except ImportError as exc:
        raise BenchError(f"the eval-mix oracles need mpmath: {exc}") from exc
    return [
        req
        for req, value in zip(evalmix.take(seed, len(values)), values)
        if not isinstance(value, float) or not oracle.check(req, value, perturbed)
    ]


def run_eval_mix(seconds: float, seed: int) -> dict:
    out = _worker(["eval-mix", "--seed", str(seed), "--seconds", str(seconds)],
                  timeout=seconds + CHILD_TIMEOUT_S)
    values = out["values"]
    failed = failed_eval_requests(seed, values)
    known = sum(evalmix.known_defect(req) for req in failed)
    print(f"eval-mix: {known} of {len(failed)} failed requests are polylog orders "
          f"above {evalmix.MAX_POLYLOG_ORDER} on an expansion branch (ROADMAP item 4)")
    return {"latencies_ms": [ns / 1e6 for ns in out["latencies_ns"]],
            "loop_s": out["loop_ns"] / 1e9,
            "attempted": len(values),
            "failed": len(failed)}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s = measure_setup_s(workload)
    if workload == "suite-warm":
        res = run_suite_warm(seconds)
    elif workload == "verify-cold":
        res = run_verify_cold(seconds)
    else:
        res = run_eval_mix(seconds, seed)
    lat = res["latencies_ms"]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _children_peak_rss_mb(),
        "op_ms.p50": statistics.median(lat),
        "op_ms.tail": _percentile(lat, tail),
        "ops_per_s": res["attempted"] / res["loop_s"],
    }
    print(f"{workload}: seed {seed}, {len(lat)} operations in {res['loop_s']:.2f} s, "
          f"tail = p{tail} ({len(lat) - int(len(lat) * tail / 100)} samples beyond it), "
          f"{res['failed']} failed")
    return metrics, res


# ----------------------------------------------------------------- traced


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    metrics = measure_import_ms()
    OUT.mkdir(exist_ok=True)
    spans = str(OUT / f"spans-{workload}.tsv")
    if workload == "verify-cold":
        plain, runs = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(runs) < MIN_PASSES:
            plain.append(_worker(["verify"]))
            runs.append(_worker(["verify", "--trace", "--spans", spans]))
        untraced_ns = [r["pass_ns"] for r in plain]
        traced_ns = [r["pass_ns"] for r in runs]
        layers = {k: statistics.fmean(r["layers"][k] for r in runs) for k in runs[0]["layers"]}
        last = runs[-1]
        attempted = len(plain) + len(runs)
        failed = sum(r["failed"] for r in plain + runs)
    else:
        args = [workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
                "--spans", spans]
        last = _worker(args, timeout=seconds + CHILD_TIMEOUT_S)
        untraced_ns, traced_ns = last["untraced_ns"], last["traced_ns"]
        layers = last["layers"]
        attempted, failed = last["attempted"], last["failed"]
        if workload == "eval-mix":
            # Every pass replays the first one's requests and must repeat its
            # answers, so a request wrong in the first pass is wrong in each.
            passes = attempted // len(last["values"])
            failed += passes * len(failed_eval_requests(seed, last["values"]))
    metrics.update(layers)
    metrics["constants.zeta.first_calls"] = last["zeta_first_calls"]
    metrics["specfun.polylog.high_order_failed"] = last["probe"][0]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_ns) / statistics.median(untraced_ns) - 1.0
    )
    metrics["trace.op_ms"] = statistics.median(traced_ns) / 1e6
    metrics["trace.spans"] = last["spans_per_pass"]
    print(f"{workload} traced: {len(traced_ns)} traced and {len(untraced_ns)} untraced "
          f"passes, spans in {spans}")
    return metrics, attempted, failed


# -------------------------------------------------------------- self-test


def self_test() -> int:
    """Negative controls: each must be counted as failed."""
    results = []

    a, b = evalmix.take(7, 400), evalmix.take(7, 400)
    results.append(("eval-mix stream repeats for one seed", a == b))
    results.append(("eval-mix stream differs between seeds", a != evalmix.take(8, 400)))

    res = run_verify_cold(0.0, ["--inject-failure", CONTROL_CASE])
    results.append((f"verify --inject-failure {CONTROL_CASE} counted failed",
                    res["failed"] == res["attempted"] >= 1))

    res = run_suite_warm(1.0, ["--inject-failure", CONTROL_CASE])
    results.append((f"suite-warm with registry.inject_failure({CONTROL_CASE}) counted failed",
                    res["failed"] == res["attempted"] >= 1))

    out = _worker(["eval-mix", "--seed", "7", "--seconds", "1"])
    values = out["values"]
    reqs = evalmix.take(7, len(values))
    known = [r.index for r in reqs if evalmix.known_defect(r)]
    failed = [r.index for r in failed_eval_requests(7, values)]
    results.append((f"eval-mix fails exactly its {len(known)} known-defect requests "
                    f"of {len(values)}", known and failed == known))
    results.append(("eval-mix with perturbed references counted failed",
                    len(failed_eval_requests(7, values, perturbed=True)) == len(values)))

    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eulersum benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = _check_checkout()
        _prime()
        if args.self_test:
            return self_test()
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, args.seconds)
            wanted = spec["per_layer"]
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds)
            attempted, failed = res["attempted"], res["failed"]
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print(f"  {name:48s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
