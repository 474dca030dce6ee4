"""Content-addressed on-disk cache of completed experiment runs.

A run is addressed by the SHA-256 digest of its canonical JSON config
``{"experiment", "version", "params"}``; the cache stores one JSON file
per digest under ``<root>/<digest[:2]>/<digest>.json`` so repeated
sweeps are served from disk instead of re-simulating.  Entries record
the config alongside the result, so the cache is self-describing and a
``report`` can be generated from the cache directory alone.

The cache root also hosts sibling subsystems that are *not* result
entries — ``observe/`` (metrics/trace artifacts keyed by the same
digests) and ``ledger/`` (the cross-run ledger) — so entry scans match
only the two-hex-char shard directories.  ``prune`` additionally sweeps
observe artifacts orphaned by entry removal: an artifact whose digest
no longer has a live cache entry can never be resolved again.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple


def _jsonify(value: object) -> object:
    """JSON fallback for numpy scalars and sets."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"not JSON-serializable: {value!r}")


def canonical_json(payload: object) -> str:
    """Compact, key-sorted JSON — the hashing and storage encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonify)


def canonicalize(payload: object) -> object:
    """Round-trip ``payload`` through canonical JSON.

    Normalizes tuples to lists and numpy scalars to Python numbers so a
    freshly computed result is structurally identical to one reloaded
    from the cache.
    """
    return json.loads(canonical_json(payload))


def config_digest(
    experiment: str, params: Mapping[str, object], version: int = 1
) -> str:
    """The content address of one run's configuration."""
    blob = canonical_json(
        {"experiment": experiment, "version": version, "params": params}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


#: Entry files live only under the two-hex-char shard directories;
#: sibling subsystems (observe/, ledger/) are never entries.
_ENTRY_GLOB = "[0-9a-f][0-9a-f]/*.json"


@dataclass
class ResultCache:
    """A directory of content-addressed experiment results."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_paths(self) -> Iterator[Path]:
        return self.root.glob(_ENTRY_GLOB)

    def get(
        self, experiment: str, params: Mapping[str, object], version: int = 1
    ) -> Optional[Dict[str, object]]:
        """The stored entry for this config, or None (corrupt == miss)."""
        path = self.path_for(config_digest(experiment, params, version))
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            result = entry["result"]
        except (OSError, ValueError, TypeError, KeyError):
            self.stats.misses += 1
            return None
        if not isinstance(result, (dict, list)):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(
        self,
        experiment: str,
        params: Mapping[str, object],
        result: object,
        elapsed_s: Optional[float] = None,
        version: int = 1,
    ) -> Path:
        """Store one completed run; the write is atomic (tmp + rename)."""
        digest = config_digest(experiment, params, version)
        entry = {
            "experiment": experiment,
            "version": version,
            "digest": digest,
            "params": canonicalize(params),
            "result": canonicalize(result),
            "elapsed_s": elapsed_s,
        }
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(entry))
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self.stats.writes += 1
        return path

    def iter_entries(
        self, experiment: Optional[str] = None
    ) -> Iterator[Dict[str, object]]:
        """All readable entries, optionally filtered by experiment name."""
        for path in sorted(self._entry_paths()):
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if experiment is None or entry.get("experiment") == experiment:
                yield entry

    def stats_by_config(self) -> Dict[Tuple[str, int], Dict[str, int]]:
        """Entry and byte counts per ``(experiment, version)`` pair.

        Unreadable or malformed files are grouped under
        ``("<corrupt>", 0)`` so ``cache stats`` surfaces them instead of
        silently skipping (they are misses on every lookup anyway).
        """
        stats: Dict[Tuple[str, int], Dict[str, int]] = {}
        for path in sorted(self._entry_paths()):
            size = path.stat().st_size
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                key = (str(entry["experiment"]), int(entry.get("version", 1)))
            except (OSError, ValueError, TypeError, KeyError):
                key = ("<corrupt>", 0)
            bucket = stats.setdefault(key, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return stats

    def _artifact_paths(self) -> Iterator[Path]:
        """Observability artifact files beside the entries."""
        from ..observe.artifacts import observe_dir

        return observe_dir(self.root).glob("*.json")

    def observe_stats(self) -> Dict[str, int]:
        """Artifact count and bytes under ``observe/``.

        Which of them are orphaned is part of the :meth:`prune` plan
        (``prune(registered, dry_run=True)``): an artifact is orphaned
        once no entry that survives the prune carries its digest.
        """
        sizes = [path.stat().st_size for path in self._artifact_paths()]
        return {"artifacts": len(sizes), "bytes": sum(sizes)}

    def ledger_stats(self) -> Dict[str, int]:
        """Record/event counts and on-disk bytes of the sibling ledger.

        The ledger is append-only and never pruned, so ``cache stats``
        is where its growth becomes visible: deterministic run records
        (``ledger.jsonl``) and worker heartbeats (``status.jsonl``).
        """
        from ..observe.ledger import (
            LEDGER_DIRNAME,
            LEDGER_FILENAME,
            STATUS_FILENAME,
            read_jsonl,
        )

        directory = self.root / LEDGER_DIRNAME
        record_path = directory / LEDGER_FILENAME
        status_path = directory / STATUS_FILENAME
        return {
            "records": len(read_jsonl(record_path, strict=False)),
            "status_events": len(read_jsonl(status_path, strict=False)),
            "bytes": sum(path.stat().st_size
                         for path in (record_path, status_path)
                         if path.is_file()),
        }

    def prune(
        self, registered: Mapping[str, int], dry_run: bool = False
    ) -> Dict[str, int]:
        """Delete entries whose ``(experiment, version)`` is not registered.

        ``registered`` maps experiment names to their current version;
        an entry survives only when its experiment is present at exactly
        that version — anything else (renamed experiments, stale
        versions after a semantics bump, corrupt files) can never be
        served again and is removed.  Observability artifacts whose
        digest has no surviving entry are swept with them.  The plan is
        computed before anything is deleted, so ``dry_run=True`` reports
        exactly what a real prune removes, and deletes nothing.  Returns
        ``{"removed", "kept", "freed_bytes", "artifacts_removed",
        "artifacts_freed_bytes"}``.
        """
        stale, live, kept = [], set(), 0
        for path in sorted(self._entry_paths()):
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                experiment = str(entry["experiment"])
                keep = registered.get(experiment) == int(entry.get("version", 1))
            except (OSError, ValueError, TypeError, KeyError):
                keep = False
            if keep:
                live.add(path.stem)
                kept += 1
            else:
                stale.append(path)
        orphans = [
            path
            for path in sorted(self._artifact_paths())
            if path.name.split(".")[0] not in live
        ]
        outcome = {
            "removed": len(stale),
            "kept": kept,
            "freed_bytes": sum(path.stat().st_size for path in stale),
            "artifacts_removed": len(orphans),
            "artifacts_freed_bytes": sum(path.stat().st_size for path in orphans),
        }
        if not dry_run:
            for path in stale + orphans:
                path.unlink()
        return outcome

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_paths():
            path.unlink()
            removed += 1
        return removed
