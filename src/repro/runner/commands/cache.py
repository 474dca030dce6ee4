"""Cache commands: ``cache stats`` and ``cache prune``.

* ``cache stats [--json]`` — entry/byte counts per (experiment,
  version) with each pair's status against the registry, plus the
  observe artifacts and the run ledger stored beside the cache.
* ``cache prune [--dry-run]`` — remove the entries no registered
  experiment can ever serve again, and the observe artifacts they
  orphan; ``--dry-run`` reports the same plan without deleting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..cache import ResultCache
from ..experiment import list_experiments


def register(sub, cache_dir: argparse.ArgumentParser) -> None:
    cache_parser = sub.add_parser("cache", help="inspect or prune the result cache")
    actions = cache_parser.add_subparsers(dest="action", required=True)
    stats_parser = actions.add_parser(
        "stats",
        parents=[cache_dir],
        help="entry/byte counts per (experiment, version)",
    )
    stats_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics as JSON on stdout",
    )
    stats_parser.set_defaults(handler=_cmd_stats)
    prune_parser = actions.add_parser(
        "prune",
        parents=[cache_dir],
        help="delete entries whose (experiment, version) no longer "
        "matches a registered experiment",
    )
    prune_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting",
    )
    prune_parser.set_defaults(handler=_cmd_prune)


def _open(args: argparse.Namespace) -> ResultCache:
    root = Path(args.cache_dir)
    if not root.is_dir():
        raise ValueError(f"no cache at {root}")
    return ResultCache(root)


def _registered_versions() -> dict:
    """Current ``{experiment: version}`` map — what prune keeps."""
    return {exp.name: exp.version for exp in list_experiments()}


def _status(experiment: str, version: int, current) -> str:
    if experiment == "<corrupt>":
        return "corrupt"
    if current is None:
        return "unregistered"
    if current != version:
        return f"stale (now v{current})"
    return "current"


def _cmd_stats(args: argparse.Namespace) -> int:
    cache = _open(args)
    registered = _registered_versions()
    configs = [
        {
            "experiment": experiment,
            "version": version,
            "entries": bucket["entries"],
            "bytes": bucket["bytes"],
            "status": _status(experiment, version, registered.get(experiment)),
        }
        for (experiment, version), bucket in sorted(cache.stats_by_config().items())
    ]
    total = {
        key: sum(config[key] for config in configs) for key in ("entries", "bytes")
    }
    # Orphans are what a prune would sweep, stale entries' artifacts too.
    plan = cache.prune(registered, dry_run=True)
    observe = dict(
        cache.observe_stats(),
        orphaned=plan["artifacts_removed"],
        orphaned_bytes=plan["artifacts_freed_bytes"],
    )
    ledger = cache.ledger_stats()
    if args.json:
        payload = {
            "root": str(cache.root),
            "configs": configs,
            "total": total,
            "observe": observe,
            "ledger": ledger,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    from ...analysis.report import format_table

    columns = ("experiment", "version", "entries", "bytes", "status")
    print(
        format_table(
            columns, [[str(config[key]) for key in columns] for config in configs]
        )
    )
    print(f"total: {total['entries']} entries, {total['bytes']} bytes in {cache.root}")
    if observe["artifacts"]:
        print(
            f"observe: {observe['artifacts']} artifacts, "
            f"{observe['bytes']} bytes "
            f"({observe['orphaned']} orphaned, "
            f"{observe['orphaned_bytes']} bytes reclaimable by prune)"
        )
    if ledger["records"] or ledger["status_events"]:
        print(
            f"ledger: {ledger['records']} run records, "
            f"{ledger['status_events']} status events, "
            f"{ledger['bytes']} bytes"
        )
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    cache = _open(args)
    outcome = cache.prune(_registered_versions(), dry_run=args.dry_run)
    if args.dry_run:
        print(
            f"would remove {outcome['removed']} entries "
            f"({outcome['freed_bytes']} bytes) from {cache.root}"
        )
        sweep = "would sweep"
    else:
        print(
            f"removed {outcome['removed']} entries "
            f"({outcome['freed_bytes']} bytes), kept {outcome['kept']} "
            f"in {cache.root}"
        )
        sweep = "swept"
    if outcome["artifacts_removed"]:
        print(
            f"{sweep} {outcome['artifacts_removed']} orphaned observe "
            f"artifacts ({outcome['artifacts_freed_bytes']} bytes)"
        )
    return 0
