"""The regression gate: ``regress --against A [--against ...] --current B``.

Classifies one saved ``python3 perfbench/run.py`` transcript against
baseline transcripts (:mod:`repro.runner.sentinel`): ``setup_s``,
``run_s`` and ``peak_rss_mb`` medians under a noise band, count
metrics exactly.  Exits 1 on a regression or a changed count, 2 on an
unreadable or failed transcript (CI-ready).
"""

from __future__ import annotations

import argparse
import json

from ..cli import add_output, write_output
from ..sentinel import (
    DEFAULT_MIN_REL,
    DEFAULT_SIGMA,
    evaluate,
    load_transcript,
    regress_table,
)


def register(sub, cache_dir: argparse.ArgumentParser) -> None:
    regress_parser = sub.add_parser(
        "regress", help="gate one perfbench run against baseline runs"
    )
    regress_parser.add_argument(
        "--against",
        action="append",
        default=[],
        required=True,
        metavar="TRANSCRIPT",
        help="saved stdout of python3 perfbench/run.py (repeatable; the "
        "runs are pooled into each workload's noise band)",
    )
    regress_parser.add_argument(
        "--current",
        required=True,
        metavar="TRANSCRIPT",
        help="saved stdout of the perfbench run to classify",
    )
    regress_parser.add_argument(
        "--min-rel",
        type=float,
        default=DEFAULT_MIN_REL,
        metavar="FRACTION",
        help="relative slowdown (or growth in peak RSS) below which "
        "nothing is flagged (default: %(default)s)",
    )
    regress_parser.add_argument(
        "--sigma",
        type=float,
        default=DEFAULT_SIGMA,
        help="noise-band width in baseline coefficient-of-variation "
        "units (default: %(default)s)",
    )
    regress_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON",
    )
    add_output(regress_parser)
    regress_parser.set_defaults(handler=_cmd_regress)


def _cmd_regress(args: argparse.Namespace) -> int:
    baselines = [load_transcript(path) for path in args.against]
    current = load_transcript(args.current)
    report = evaluate(current, baselines, min_rel=args.min_rel, sigma=args.sigma)
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = regress_table(report) + "\n"
    write_output(args, text)
    return int(report["exit_code"])
