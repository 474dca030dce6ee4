"""On-disk observability artifacts, written beside the result cache.

One observed run produces up to two artifact files keyed by the run's
cache content address (:func:`repro.runner.cache.config_digest`):

    <cache-root>/observe/<digest>.metrics.json
    <cache-root>/observe/<digest>.trace.json

Each file wraps the per-machine payloads of every machine the run built
(run surfaces build machines in a fixed order, so the list order is
deterministic).  Files are written with a local canonical JSON encoding
(compact, key-sorted, ``allow_nan=False``) so the trace-determinism
tests can compare artifacts byte for byte across ``--jobs`` splits; the
encoder is deliberately self-contained so this module never imports the
runner (the runner imports *us*).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional

__all__ = [
    "artifact_path",
    "find_artifact",
    "list_artifacts",
    "load_artifact",
    "observe_dir",
    "write_run_artifacts",
]

#: The artifact layers an observed run collects, in file-naming order.
LAYERS = ("metrics", "trace")


def _canonical_dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def observe_dir(cache_root: Path) -> Path:
    """The artifact directory beside a cache root (not created)."""
    return Path(cache_root) / "observe"


def artifact_path(directory: Path, digest: str, layer: str) -> Path:
    if layer not in LAYERS:
        raise ValueError(f"unknown artifact layer {layer!r}; "
                         f"expected one of {LAYERS}")
    return Path(directory) / f"{digest}.{layer}.json"


def write_run_artifacts(directory: Path, digest: str,
                        artifacts: Mapping[str, list]) -> List[Path]:
    """Write one run's collected artifacts; returns the paths written.

    ``artifacts`` is the :func:`repro.observe.context.collect` mapping:
    layer name to the list of per-machine payloads.  Each layer is
    written with canonical JSON, so equal payloads are byte-equal files,
    and atomically (tmp + rename) like cache entries, so a crashed run
    never leaves a half-written artifact for the determinism tests to
    trip over.
    """
    directory = Path(directory)
    written: List[Path] = []
    for layer in LAYERS:
        machines = artifacts.get(layer)
        if not machines:
            continue
        directory.mkdir(parents=True, exist_ok=True)
        payload = {"digest": digest, "layer": layer, "machines": machines}
        path = artifact_path(directory, digest, layer)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_canonical_dump(payload))
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        written.append(path)
    return written


def load_artifact(path: Path) -> Dict[str, object]:
    """Read one artifact file back (raises on malformed content)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "machines" not in payload:
        raise ValueError(f"{path} is not an observability artifact")
    return payload


def find_artifact(directory: Path, digest_prefix: str,
                  layer: str) -> Optional[Path]:
    """The unique artifact whose digest starts with ``digest_prefix``.

    Returns ``None`` when nothing matches; raises ``ValueError`` when
    the prefix is ambiguous (two digests share it).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    matches = sorted(directory.glob(f"{digest_prefix}*.{layer}.json"))
    if not matches:
        return None
    if len(matches) > 1:
        names = ", ".join(path.name for path in matches)
        raise ValueError(
            f"digest prefix {digest_prefix!r} is ambiguous: {names}")
    return matches[0]


def list_artifacts(directory: Path) -> List[Dict[str, object]]:
    """All artifacts under ``directory`` as sorted summary rows."""
    directory = Path(directory)
    rows: List[Dict[str, object]] = []
    if not directory.is_dir():
        return rows
    for path in sorted(directory.glob("*.json")):
        name = path.name
        for layer in LAYERS:
            suffix = f".{layer}.json"
            if name.endswith(suffix):
                rows.append({
                    "digest": name[: -len(suffix)],
                    "layer": layer,
                    "path": str(path),
                    "bytes": path.stat().st_size,
                })
                break
    return rows
