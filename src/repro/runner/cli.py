"""Command-line interface: ``python -m repro.runner`` / ``repro-runner``.

Each command family lives in its own module under
:mod:`repro.runner.commands`, whose docstring describes its
subcommands: ``runs`` (list, run, sweep, report), ``cache`` (stats,
prune), ``observe`` (trace, timeline, diagnose), ``ledger`` (ledger,
status) and ``regress``.  This module assembles their parsers and
dispatches to the handler the parsed subcommand binds.

Result payloads go to stdout (or ``--output``); progress and cache
statistics go to stderr, so stdout is always machine-consumable and
byte-stable for a given grid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

DEFAULT_CACHE_DIR = ".repro-cache"


def add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", "-o", default="-", help="output path (default: stdout)"
    )


def write_output(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to ``--output`` (announced on stderr), or stdout."""
    if args.output and args.output != "-":
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    from .commands import cache, ledger, observe, regress, runs

    parser = argparse.ArgumentParser(
        prog="repro-runner",
        description="Parallel, cached experiment runner for the Anton 3 "
        "network reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One --cache-dir for every subcommand that reads or writes the cache.
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    for family in (runs, cache, observe, ledger, regress):
        family.register(sub, cache_dir)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, TypeError, ValueError, OSError) as error:
        # Bad experiment/parameter names, malformed inputs, unreadable
        # paths: report cleanly instead of dumping a traceback.
        if isinstance(error, OSError):
            message = str(error)
        else:
            message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
