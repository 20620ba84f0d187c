"""Command-line front end: the parser, the admission of a request, and the
report's envelope and write.

One JSON report per invocation on standard output, byte-identical to
``json.dumps(report, indent=2)``: ``jsonout`` has the standard library write
all but the big tables, and streams those itself; human-readable tables only
behind --pretty.  The cache holds the key and S of the modular
data, and a hit derives the rest; a modular-data query builds its document
once, for the report, on a miss and on a hit alike.  Each command imports only
the modules it uses, so a modular-data query never loads the simple-current
layers, and every input refusal is decided before the first cache read or
numpy import: --help, a usage error or a refused input never loads numpy,
nor ``dataclasses`` nor the payload builders and --pretty renderers of
``reports``.
Exit codes: 0 success, 2 user error, 3 mathematical-check failure under
--strict (selftest is always strict).  A reader that closes standard output
early ends the run quietly with exit code 0.  ``main()`` flushes and ends
the process with ``os._exit`` once ``run()`` returns, skipping interpreter
teardown; ``run()`` itself returns normally.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# One BLAS thread unless the user asked for more: the matrices here are too
# small to pay for OpenBLAS's worker threads, which spin between calls.  This
# must run before numpy loads OpenBLAS; the library itself leaves it alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import Config
from .errors import WzwError
from .lietype import SimpleLieType, admit, parse_lie_type


def _ascii_number(kind: type):
    """kind as an argparse type that refuses text that is not ASCII or holds
    "_", as parse_lie_type does: int() reads "٣" as 3 and "1_0" as 10."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)  # argparse's "invalid int value: ..." usage error
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names it in that message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, default in Config._field_defaults.items():  # --tolerance, ..., --object-cap
        common.add_argument("--" + name.replace("_", "-"), type=_ascii_number(type(default)),
                            default=default)
    common.add_argument("--cache-dir", type=str, default=None)
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when a mathematical check fails")
    common.add_argument("--pretty", action="store_true",
                        help="human-readable tables instead of JSON")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report")

    parser = argparse.ArgumentParser(
        prog="wzwkit",
        description="Modular data and simple-current machinery for WZW categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_algebra(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("algebra", help="series plus rank, e.g. A1 or D4")
        p.add_argument("level", type=_ascii_number(int), help="positive integer level")
        return p

    with_algebra("modular-data", help="weights, S, T, fusion, quantum dimensions")
    with_algebra("picard", help="simple-current group, twists and charge table")
    inv = with_algebra("invariants", help="Schellekens algebras and partition matrices")
    inv.add_argument("--latex", action="store_true",
                     help="also emit each Z as a |chi|^2 combination string")
    with_algebra("boundaries", help="orbits, stabilizers and boundary counts")
    with_algebra("bimodules", help="bimodule rings, their Picard groups, KW candidates")
    with_algebra("twining", help="fixed points, folded algebras, S^w and phi tables")
    with_algebra("verify-conjecture", help="property suite for the twining relation")
    sub.add_parser("selftest", parents=[common],
                   help="run the acceptance battery (always strict)")
    return parser


def _validate(args: argparse.Namespace) -> tuple[Config, SimpleLieType | None]:
    """The Config of args and its algebra's Lie type (None for selftest).

    Every input refusal is raised here, before any cache read or numpy
    import: ValueError for a bad tolerance or cap, UnsupportedRank for a bad
    algebra and ``lietype.admit``'s refusals, which a miss and a cache hit
    make again.
    """
    config = Config._make(getattr(args, name) for name in Config._fields)
    if args.command == "selftest":
        return config, None
    t = parse_lie_type(args.algebra)
    admit(t, args.level, config)
    return config, t


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        try:
            config, lie_type = _validate(args)
            # Only an accepted input loads numpy, the numeric layer and the report
            # builders, and before the clock starts, so that --timing reports the
            # work, not the import.
            from . import cache, jsonout, reports  # noqa: F401
            started = time.monotonic()
            input_blob, payload, checks = reports.run_query(args, config, lie_type)
        except WzwError as exc:
            print(f"wzwkit: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"wzwkit: {exc}", file=sys.stderr)
            return 2

        report = {
            "schemaVersion": 1,
            "command": args.command,
            "input": input_blob,
            "payload": payload,
            "checks": checks,
            "timingSeconds": round(time.monotonic() - started, 6) if args.timing else None,
        }
        try:
            if args.pretty:
                reports.print_pretty(report)
            else:
                jsonout.write(report, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe early: stop quietly, leaving any later
            # flush of standard output nothing to fail on (main()'s, or the
            # interpreter's at exit when run() is called from Python)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    except MemoryError as exc:  # in the query, or in the write, which stays cut short
        # numpy raises a private subclass, Python's own allocator one with no message
        print(f"wzwkit: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    failed = any(not c["pass"] for c in checks)
    if failed and (args.strict or args.command == "selftest"):
        return 3
    return 0


def main() -> None:
    """The console entry point: run() on the command line, flush, and exit
    without interpreter teardown, which would only spend time finalizing
    modules after the report is out (every file is closed by then)."""
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader left early: stop quietly, as run() does
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
