"""Ledger commands: ``ledger {list,show,diff}`` and ``status``.

* ``ledger list [--experiment E] [--sweep S] [--json]`` — one row per
  execution recorded in the persistent cross-run ledger beside the
  cache.
* ``ledger show DIGEST`` — the latest record of one config digest (or
  unique prefix), as JSON.
* ``ledger diff DIGEST DIGEST [--json]`` — compare two digests' latest
  records (params, results, metrics) across runs and revisions.
* ``status [--watch]`` — the live sweep progress board folded from the
  workers' heartbeat stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ...observe.ledger import (
    RunLedger,
    diff_records,
    diff_table,
    latest_records,
    ledger_dir,
    ledger_table,
    resolve_digest,
)


def register(sub, cache_dir: argparse.ArgumentParser) -> None:
    ledger_parser = sub.add_parser(
        "ledger", help="query the persistent cross-run ledger"
    )
    actions = ledger_parser.add_subparsers(dest="action", required=True)
    list_parser = actions.add_parser(
        "list", parents=[cache_dir],
        help="one row per recorded execution")
    list_parser.add_argument(
        "--experiment", default=None, help="only records of this experiment")
    list_parser.add_argument(
        "--sweep", default=None, help="only records of this sweep label")
    list_parser.add_argument(
        "--json", action="store_true", help="emit the records as JSON")
    list_parser.set_defaults(handler=_cmd_list)
    show_parser = actions.add_parser(
        "show", parents=[cache_dir],
        help="the latest record of one digest, as JSON")
    show_parser.add_argument(
        "digest", metavar="DIGEST", help="config digest (or unique prefix)")
    show_parser.set_defaults(handler=_cmd_show)
    diff_parser = actions.add_parser(
        "diff", parents=[cache_dir],
        help="compare two digests' records (params/result/metrics)")
    diff_parser.add_argument(
        "digests", nargs=2, metavar="DIGEST",
        help="config digest (or unique prefix)")
    diff_parser.add_argument(
        "--json", action="store_true", help="emit the diff as JSON")
    diff_parser.set_defaults(handler=_cmd_diff)

    status_parser = sub.add_parser(
        "status", parents=[cache_dir], help="show the live sweep progress board"
    )
    status_parser.add_argument(
        "--watch",
        action="store_true",
        help="re-render until every grid point reaches a terminal state",
    )
    status_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="with --watch: seconds between renders (default: 2)",
    )
    status_parser.set_defaults(handler=_cmd_status)


def _ledger(args: argparse.Namespace) -> RunLedger:
    return RunLedger(ledger_dir(Path(args.cache_dir)))


def _records(args: argparse.Namespace) -> list:
    """Every readable ledger record; raises when there are none."""
    ledger = _ledger(args)
    records = ledger.records(strict=False)
    if not records:
        raise ValueError(f"no ledger records at {ledger.record_path}")
    return records


def _dump(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_list(args: argparse.Namespace) -> int:
    ledger = _ledger(args)
    records = ledger.records(strict=False)
    if not records:
        print(f"no ledger records at {ledger.record_path}", file=sys.stderr)
        return 0
    if args.experiment is not None:
        records = [record for record in records
                   if record.get("experiment") == args.experiment]
    if args.sweep is not None:
        records = [record for record in records
                   if record.get("sweep") == args.sweep]
    if not records:
        print("no ledger records match the filters", file=sys.stderr)
    elif args.json:
        _dump(records)
    else:
        print(ledger_table(records))
        print(f"{len(records)} records in {ledger.record_path}",
              file=sys.stderr)
    return 0


def _latest(records: list, prefix: str) -> dict:
    return latest_records(records)[resolve_digest(records, prefix)]


def _cmd_show(args: argparse.Namespace) -> int:
    _dump(_latest(_records(args), args.digest))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    records = _records(args)
    diff = diff_records(*(_latest(records, prefix) for prefix in args.digests))
    if args.json:
        _dump(diff)
    else:
        print(diff_table(diff))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import time

    from ...observe.status import all_points_terminal, render_status_board

    ledger = _ledger(args)
    while True:
        events = ledger.status_events()
        print(render_status_board(events))
        if not args.watch or all_points_terminal(events):
            return 0
        time.sleep(max(args.interval, 0.05))
        print()
