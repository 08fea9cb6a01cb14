"""CLI contract: exit codes, output formats, eval surface."""

import json
import subprocess
import sys

import pytest

from eulersum.cli import main
from eulersum.constants import zeta
from eulersum.eulersums import EulerSumSpec, sum_series


def run_cli(*args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_zeta(self):
        code, out, _ = run_cli("eval", "zeta", "3")
        assert code == 0
        assert float(out.strip()) == zeta(3)
        assert out.strip().startswith("1.202056903159594")

    def test_polylog(self):
        code, out, _ = run_cli("eval", "polylog", "2", "-1")
        assert code == 0
        assert abs(float(out.strip()) + 0.8224670334241132) <= 1e-15

    def test_hsum(self):
        code, out, _ = run_cli("eval", "hsum", "2", "2")
        assert code == 0
        value = float(out.strip())
        assert value == sum_series(EulerSumSpec(2, 2))
        assert abs(value - 17.0 / 4.0 * zeta(4)) <= 1e-10

    def test_gp(self):
        code, out, _ = run_cli("eval", "gp", "1")
        assert code == 0
        assert abs(float(out.strip()) - 0.5 * zeta(2) ** 2) <= 1e-15

    def test_integral(self):
        code, out, _ = run_cli("eval", "integral", "2")
        assert code == 0
        assert abs(float(out.strip()) - 2.0 * zeta(3)) <= 1e-10

    def test_wrong_arity_exits_2(self):
        code, _, err = run_cli("eval", "zeta")
        assert code == 2
        assert "zeta" in err

    def test_bad_domain_exits_2(self):
        code, _, err = run_cli("eval", "zeta", "1")
        assert code == 2
        assert err != ""


class TestVerify:
    def test_filtered_json_report(self):
        code, out, _ = run_cli(
            "verify", "--filter", "euler-q2", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload.keys()) == {"cases", "summary", "suite_elapsed_ms"}
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["errored"] == 0
        assert payload["summary"]["total"] == 3
        for case in payload["cases"]:
            assert set(case.keys()) == {
                "id", "status", "lhs_value", "rhs_value", "abs_residual",
                "rel_residual", "tol", "evaluations", "elapsed_ms",
            }

    def test_text_and_json_statuses_agree(self):
        _, json_out, _ = run_cli("verify", "--filter", "gp-", "--output", "json")
        _, text_out, _ = run_cli("verify", "--filter", "gp-")
        payload = json.loads(json_out)
        for case in payload["cases"]:
            matching = [l for l in text_out.splitlines() if l.startswith(case["id"])]
            assert len(matching) == 1
            assert case["status"] in matching[0]

    def test_inject_failure_flips_exit_code(self):
        code, out, _ = run_cli(
            "verify", "--filter", "euler-q2",
            "--inject-failure", "euler-q2-series",
            "--output", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 1
        statuses = {c["id"]: c["status"] for c in payload["cases"]}
        assert statuses["euler-q2-series"] == "fail"
        assert statuses["euler-q2-integral"] == "pass"

    def test_inject_failure_unknown_id_exits_2(self):
        code, _, err = run_cli("verify", "--inject-failure", "nope")
        assert code == 2
        assert "nope" in err

    def test_tol_override_loosens_only(self):
        code, out, _ = run_cli(
            "verify", "--filter", "landen", "--tol", "1e-3", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["cases"][0]["tol"] == 1e-3


class TestList:
    def test_lists_registry(self):
        code, out, _ = run_cli("list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 12
        assert any(line.startswith("euler-q2-series") for line in lines)
        assert any("Euler" in line for line in lines)
        assert lines == sorted(lines)


class TestArgumentErrors:
    def test_unknown_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_no_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "verify", "--frob"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
