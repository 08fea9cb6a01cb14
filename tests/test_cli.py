"""CLI contract: exit codes, output formats, eval surface."""

import json
import math
import subprocess
import sys
import time

import pytest

from eulersum import cli
from eulersum.cli import main
from eulersum.constants import zeta
from eulersum.eulersums import EulerSumSpec, sum_series
from eulersum.registry import IdentityCase
from eulersum.specfun import polylog


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

    def test_inject_failure_filtered_out_exits_2(self):
        code, out, err = run_cli(
            "verify", "--inject-failure", "euler-q2-series", "--filter", "euler-q3"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "eulersum: verify: --filter 'euler-q3' excludes the injected case "
            "'euler-q2-series'\n"
        )

    @staticmethod
    def _non_finite_registry(monkeypatch):
        cases = [
            IdentityCase(id=f"non-finite-{i}", description="not a number",
                         lhs=lambda v=value: v, rhs=lambda v=value: v, tol=1e-6)
            for i, value in enumerate((math.nan, math.inf))
        ]
        monkeypatch.setattr(cli, "builtin_registry", lambda: cases)

    def test_non_finite_sides_give_valid_json(self, monkeypatch):
        self._non_finite_registry(monkeypatch)
        code, out, _ = run_cli("verify", "--output", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["errored"] == 2
        for case in payload["cases"]:
            assert case["status"] == "error"
            assert case["abs_residual"] is None and case["rel_residual"] is None

    def test_non_finite_sides_print_their_reason(self, monkeypatch):
        self._non_finite_registry(monkeypatch)
        code, out, _ = run_cli("verify")
        assert code == 1
        *lines, summary = out.splitlines()
        assert lines == [
            f"{'non-finite-0':32s} error  ValueError: non-finite lhs: nan",
            f"{'non-finite-1':32s} error  ValueError: non-finite lhs: inf",
        ]
        assert summary.startswith("summary: 2 cases, 0 passed, 0 failed, 2 errored")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_filter_matching_nothing_exits_2(self, output):
        code, out, err = run_cli(
            "verify", "--filter", "no-such-case", "--output", output
        )
        assert code == 2
        assert out == ""
        assert err == "eulersum: verify: no case id starts with 'no-such-case'\n"

    def test_json_reports_every_quadrature_count(self):
        code, out, _ = run_cli("verify", "--output", "json")
        assert code == 0
        counts = {c["id"]: c["evaluations"] for c in json.loads(out)["cases"]}
        assert counts["dedoelder-2d"] == 5_625
        assert counts["open-q3-2d"] == 5_625
        assert sum(1 for n in counts.values() if n) == 15


class TestClosedStdout:
    """A reader that closes stdout before the output arrives (`eulersum
    verify | true`): the output was not delivered, so the command exits 1,
    as Python does on EPIPE, with nothing on stderr. A failing verify
    never exits 0."""

    @staticmethod
    def _run_closed(*args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulersum", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_failing_verify_exits_1(self, output):
        code, err = self._run_closed(
            "verify", "--inject-failure", "euler-q2-series", "--output", output
        )
        assert (code, err) == (1, b"")

    def test_list_exits_1(self):
        assert self._run_closed("list") == (1, b"")


class TestTolValidation:
    """There is no --tol: a case is judged only against its own tol, so
    `verify --tol X` is an unknown argument for every X, beside any other
    flag: exit 2, nothing on stdout, one stderr line."""

    @staticmethod
    def _assert_unknown(capsys, value, *argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", value, *argv])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"eulersum: error: unrecognized arguments: --tol {value}\n"
        )

    @pytest.mark.parametrize(
        "value",
        ["inf", "-inf", "nan", "-1", "0", "1", "1e3", "abc",
         " 0.000_1 ", " 0.5 ", "0.5 ", "1e-0_3", "\u0660.5", "0x1p-1"],
    )
    def test_rejected_values_exit_2(self, value, capsys):
        self._assert_unknown(capsys, value, "--filter", "zeta")

    @pytest.mark.parametrize("value", ["1e-3", "inf", "nan", "0", "abc"])
    def test_message(self, value, capsys):
        for argv in ((), ("--inject-failure", "euler-q2-series"), ("--output", "json")):
            self._assert_unknown(capsys, value, *argv)

    def test_inf_cannot_hide_injected_failure(self, capsys):
        argv = ["verify", "--filter", "euler-q2-series",
                "--inject-failure", "euler-q2-series"]
        assert main(argv) == 1  # the corrupted case fails without --tol
        capsys.readouterr()
        self._assert_unknown(capsys, "inf", *argv[1:])

    def test_inf_json_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "verify", "--tol", "inf",
             "--output", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "eulersum: error: unrecognized arguments: --tol inf\n"

    @pytest.mark.parametrize("x", ["-1e-05", "-5e-324", "-1E-5"])
    def test_negative_exponent_argument(self, x):
        # argparse reads "-1e-05" as an option unless params take the rest.
        code, out, err = run_cli("eval", "polylog", "2", x)
        assert (code, err) == (0, "")
        assert float(out) == polylog(2, float(x))


class TestStrictNumbers:
    """Parameters are plain ASCII decimal literals: int() and float()
    would also read digit-group underscores, surrounding whitespace and
    non-ASCII digits."""

    @pytest.mark.parametrize(
        "args",
        [("zeta", "3_0"), ("zeta", " 3"), ("zeta", "3 "), ("zeta", "\u0663"),
         ("hsum", "1", "\u0663"), ("hsum", "1_0", "2"), ("gp", "\uff11"),
         ("integral", "+2\n"), ("polylog", "2", " 0.5_0 "),
         ("polylog", "2", "0.5_0"), ("polylog", "2", "\u0660.5"),
         ("polylog", "2", "nan"), ("polylog", "2", "0x1p-1")],
    )
    def test_eval_rejects_non_decimal_parameters(self, args):
        code, out, err = run_cli("eval", *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"eulersum: eval {args[0]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "args,value",
        [(("zeta", "+3"), zeta(3)), (("polylog", "2", ".5"), polylog(2, 0.5)),
         (("polylog", "2", "-1."), polylog(2, -1.0)),
         (("polylog", "2", "5E-1"), polylog(2, 0.5))],
    )
    def test_eval_accepts_decimal_literals(self, args, value):
        assert run_cli("eval", *args) == (0, f"{value!r}\n", "")


class TestEvalErrors:
    def test_overflow_exits_2(self):
        code, out, err = run_cli("eval", "hsum", "2", "1000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("eulersum: eval hsum: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("q", ["134", "1000000"])
    def test_hsum_large_q_is_one(self, q):
        # n**q overflowed a double in the series before q rounded to 1.0.
        code, out, err = run_cli("eval", "hsum", "1", q)
        assert (code, out, err) == (0, "1.0\n", "")

    @pytest.mark.parametrize(
        "name,param", [("integral", "63"), ("integral", "64"),
                       ("integral", str(2**20)), ("gp", "31"), ("gp", "32"),
                       ("gp", str((2**20 - 1) // 2))],
    )
    def test_large_orders_are_one(self, name, param):
        # q = 63 still runs the route; from q = 64 (q = 2p+1 for gp) the
        # value rounds to 1.0 and is returned directly.
        start = time.perf_counter()
        code, out, err = run_cli("eval", name, param)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert abs(float(out) - 1.0) <= 1e-10
        if int(param) >= 32:
            assert out == "1.0\n"

    @pytest.mark.parametrize(
        "name,param", [("integral", str(2**20 + 1)), ("integral", "1000000000000"),
                       ("gp", str(2**19)), ("gp", "1000000000000")],
    )
    def test_orders_above_max_q_exit_2(self, name, param):
        start = time.perf_counter()
        code, out, err = run_cli("eval", name, param)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"eulersum: eval {name}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_integral_orders_below_2_exit_2(self, q):
        # The domain check is sum_via_integral's own, so the message names it.
        code, out, err = run_cli("eval", "integral", q)
        assert (code, out) == (2, "")
        assert err == (
            f"eulersum: eval integral: sum_via_integral requires 2 <= q <= {2**20}, "
            f"got {q}\n"
        )

    def test_quadrature_failure_exits_2(self, monkeypatch):
        from eulersum import eulersums
        from eulersum.quad import QuadratureError, QuadratureResult

        def no_convergence(q):
            result = QuadratureResult(0.0, float("inf"), 10, False, "died")
            raise QuadratureError(f"integral of S(1; {q}) did not converge", result)

        monkeypatch.setattr(eulersums, "sum_via_integral", no_convergence)
        code, out, err = run_cli("eval", "integral", "2")
        assert code == 2
        assert out == ""
        assert err == "eulersum: eval integral: integral of S(1; 2) did not converge\n"

    def test_integral_non_convergence_names_its_reason(self, monkeypatch):
        from eulersum import eulersums, quad

        # A tol below the rounding floor: the rule runs every level and fails.
        monkeypatch.setattr(
            eulersums, "integrate", lambda f, tol: quad.integrate(f, 1e-18)
        )
        code, out, err = run_cli("eval", "integral", "2")
        assert (code, out) == (2, "")
        assert err == (
            "eulersum: eval integral: integral representation of S(1; 2) did not "
            "converge: no convergence within 12 refinement levels\n"
        )

    @pytest.mark.parametrize("x", ["0.9", "-0.9"])
    def test_polylog_huge_order_is_fast(self, x):
        start = time.perf_counter()
        code, out, err = run_cli("eval", "polylog", "1000000000000", x)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, f"{x}\n", "")

    def test_a_400_digit_order(self):
        # Li_s(0.9) is 0.9 and zeta(s) is 1.0 to the last bit, with no
        # conversion of s to a float.
        s = str(10**400)
        assert run_cli("eval", "polylog", s, "0.9") == (0, "0.9\n", "")
        assert run_cli("eval", "zeta", s) == (0, "1.0\n", "")

    def test_large_zeta_is_fast(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "eval", "gp", "100000"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == 1.0


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
    """A usage error is one stderr line, "<prog>: error: <message>", and
    exit 2."""

    def test_unknown_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith(
            "eulersum: error: argument command: invalid choice: 'frobnicate'"
        )

    def test_no_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "eulersum: error: the following arguments are required: command\n"
        )

    def test_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulersum", "verify", "--frob"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "eulersum: error: unrecognized arguments: --frob\n"

    @pytest.mark.parametrize(
        "prog,argv",
        [
            ("eulersum verify", ["verify", "--filter"]),
            ("eulersum verify", ["verify", "--output", "xml"]),
            ("eulersum eval", ["eval", "nope", "1"]),
            ("eulersum eval", ["eval"]),
            ("eulersum", ["list", "extra"]),
        ],
    )
    def test_one_line(self, prog, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"{prog}: error: ")
