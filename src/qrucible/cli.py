"""Command-line entry point.

    qrucible verify [--suite FILE]... [--filter GLOB] [--order N]
                    [--denom D] [--json PATH] [--strict] [--jobs K]

Exit code 0 iff all selected cases PASS (SKIPs tolerated unless
--strict); 2 on a usage error, suites that hold no case (a missing or
empty suite directory, empty suite files), a --filter that selects no
case, a suite file that cannot be read or does not parse, an identity
name given twice, or a --json path that cannot be written (checked
before any case runs); 1 when the reader closes stdout before the
output is written (`qrucible verify | head -1`), which ends quietly.
QRUCIBLE_SUITE_DIR overrides the default suite location.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .errors import SuiteError
from .harness import default_suite_dir, load_registry, reports_to_json, run_suite


def positive_int(text: str) -> int:
    """argparse type for --order, --denom and --jobs: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrucible",
        description="Exact verification of q-series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="verify identity suites")
    v.add_argument(
        "--suite",
        action="append",
        metavar="FILE",
        help="suite file to load (repeatable; default: shipped suites)",
    )
    v.add_argument("--filter", metavar="GLOB", help="select cases by name or tag glob")
    v.add_argument(
        "--order",
        type=positive_int,
        metavar="N",
        help="override the verification order (scaled units, multiples of 1/D)",
    )
    v.add_argument(
        "--denom",
        type=positive_int,
        metavar="D",
        help="refine the exponent grid to lcm(case D, D)",
    )
    v.add_argument("--json", metavar="PATH", help="write a JSON report")
    v.add_argument(
        "--strict", action="store_true", help="treat SKIP as failure (CI mode)"
    )
    v.add_argument("--jobs", type=positive_int, default=1, metavar="K", help="parallel workers")
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at exit cannot raise again (the recipe in the
        # Python docs, signal module, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "verify":
        return 2
    try:
        registry = load_registry(args.suite)
    except SuiteError as exc:
        print(f"qrucible: error: {exc}", file=sys.stderr)
        return 2
    if not registry.select(args.filter):
        where = ", ".join(args.suite or [str(default_suite_dir() / "*.qid")])
        what = f"--filter {args.filter!r} selects" if registry.cases else f"{where} holds"
        print(f"qrucible: error: {what} no case", file=sys.stderr)
        return 2
    try:
        report = open(args.json, "w", encoding="utf-8") if args.json else nullcontext()
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"qrucible: error: cannot write --json {args.json}: {reason}", file=sys.stderr)
        return 2
    with report:
        code, reports = run_suite(
            registry=registry,
            pattern=args.filter,
            order=args.order,
            denom=args.denom,
            jobs=args.jobs,
            strict=args.strict,
        )
        if args.json:
            report.write(reports_to_json(reports) + "\n")
    for r in reports:
        if r.status == "PASS":
            detail = f"order {r.proven_order}/{r.denom}"
        elif r.status == "FAIL":
            m = r.mismatch
            detail = f"first mismatch at q^({m.exponent}): {m.lhs} vs {m.rhs}"
        else:
            detail = r.skip_reason or "skipped"
        print(f"{r.status:4} {r.name}  ({detail}, {r.elapsed_ms:.0f} ms)")
    n_pass = sum(r.status == "PASS" for r in reports)
    n_fail = sum(r.status == "FAIL" for r in reports)
    n_skip = sum(r.status == "SKIP" for r in reports)
    print(f"{len(reports)} cases: {n_pass} pass, {n_fail} fail, {n_skip} skip")
    return code


if __name__ == "__main__":
    sys.exit(main())
