"""Command-line front end.

    eulersum verify [--filter PREFIX] [--output text|json]
    eulersum eval NAME PARAMS...
    eulersum list

verify exits 0 only when every case passed; any failure or error, or a
closed stdout, gives 1; bad arguments (among them a --filter that matches
no case or drops the --inject-failure case) give 2.
A case is judged only against its own tolerance; no option loosens it.
Reports go to stdout (text or schema-stable JSON), diagnostics to stderr.
Numbers print with shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import eulersums
from .constants import zeta
from .quad import QuadratureError
from .registry import VerificationReport, builtin_registry, inject_failure, run_suite
from .specfun import polylog

__all__ = ["main"]

# Numbers are plain ASCII decimal literals: int() and float() also read
# "3_0", " 3 " and "٣". re compiles it on first use, not at import.
_DECIMAL = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"


def _number(text: str, kind: type = int):
    if not re.fullmatch(_DECIMAL, text):
        raise ValueError(f"expected a decimal number, got {text!r}")
    return kind(text)  # int() still rejects "2.5" and "1e3"


# eval NAME: its parameter names and its evaluation from the parameter
# strings. The package functions are looked up when a request runs, so
# wrappers installed on the modules' namespaces apply.
_EVAL = {
    "zeta": (("s",), lambda s: zeta(_number(s))),
    "polylog": (("s", "x"), lambda s, x: polylog(_number(s), _number(x, float))),
    "hsum": (("m", "q"), lambda m, q: eulersums.sum_series(
        eulersums.EulerSumSpec(_number(m), _number(q)))),
    "gp": (("p",), lambda p: eulersums.sum_gp_closed_form(_number(p))),
    "integral": (("q",), lambda q: eulersums.sum_via_integral(_number(q))),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line, "<prog>: error: <message>", exit 2;
    subcommand parsers are of the same class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulersum",
        description="Verify the package's Euler-sum and polylogarithm identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity verification suite")
    verify.add_argument(
        "--filter",
        default=None,
        metavar="PREFIX",
        help="only run cases whose id starts with PREFIX",
    )
    verify.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    verify.add_argument(
        "--inject-failure",
        default=None,
        metavar="ID",
        help=argparse.SUPPRESS,  # negative control for exit-code tests
    )

    evaluate = sub.add_parser("eval", help="evaluate a named quantity")
    evaluate.add_argument(
        "name",
        choices=tuple(_EVAL),
        help=" | ".join(f"{name} {' '.join(p)}" for name, (p, _) in _EVAL.items()),
    )
    # REMAINDER: a parameter such as -1e-05 is a number, not an option.
    evaluate.add_argument(
        "params", nargs=argparse.REMAINDER, help="numeric parameters"
    )

    sub.add_parser("list", help="list the identity registry")
    return parser


def _print_text_report(report: VerificationReport) -> None:
    for case in report.cases:
        line = f"{case.id:32s} {case.status:5s}"
        if case.status == "error":
            line += f"  {case.message}"
        elif case.abs_residual is not None:
            line += (
                f"  abs={case.abs_residual:.3e}"
                f"  rel={case.rel_residual:.3e}"
                f"  tol={case.tol:.1e}"
                f"  {case.elapsed_ms:9.2f} ms"
            )
        if case.status == "fail":
            line += (
                f"  lhs={case.lhs_value}"
                f"  rhs={case.rhs_value}"
            )
        print(line)
    s = report.summary
    print(
        f"summary: {s['total']} cases, {s['passed']} passed, "
        f"{s['failed']} failed, {s['errored']} errored "
        f"({report.suite_elapsed_ms:.0f} ms)"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    cases = builtin_registry()
    if args.inject_failure is not None:
        try:
            cases = inject_failure(cases, args.inject_failure)
        except KeyError as exc:
            print(f"eulersum: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.filter is not None and not args.inject_failure.startswith(args.filter):
            # the corrupted case would not run, so the control checks nothing
            print(f"eulersum: verify: --filter {args.filter!r} excludes the "
                  f"injected case {args.inject_failure!r}", file=sys.stderr)
            return 2
    report = run_suite(id_prefix=args.filter, cases=cases)
    if report.summary["total"] == 0:
        # a report of 0 cases would pass while checking nothing
        print(f"eulersum: verify: no case id starts with {args.filter!r}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(report.as_dict(), indent=2, allow_nan=False))
    else:
        _print_text_report(report)
    failed = report.summary["failed"] + report.summary["errored"]
    return 0 if failed == 0 else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    name, params = args.name, args.params
    names, evaluate = _EVAL[name]
    try:
        if len(params) != len(names):
            raise ValueError(
                f"'{name}' expects {len(names)} parameter(s), got {len(params)}"
            )
        value = evaluate(*params)
    except (ValueError, OverflowError, QuadratureError) as exc:
        print(f"eulersum: eval {name}: {exc}", file=sys.stderr)
        return 2
    print(value)
    return 0


def _cmd_list() -> int:
    for case in sorted(builtin_registry(), key=lambda c: c.id):
        print(f"{case.id:32s} {case.description}  [{case.source}]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = _cmd_verify(args)
        elif args.command == "eval":
            code = _cmd_eval(args)
        else:
            code = _cmd_list()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader (a pager, `head`) closed stdout: exit 1, as Python does
        # on EPIPE, and send the unflushed rest to devnull, not a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
