"""Observability commands over the artifacts beside the cache.

* ``trace list`` — every metrics/trace artifact under
  ``<cache-dir>/observe``.
* ``trace export (--digest D | --input FILE) [--packet NODE,SEQ]`` —
  one trace artifact as Chrome/Perfetto JSON, optionally only one
  packet's lifecycle (its stable trace identity).
* ``timeline METRIC (--digest D | --artifact FILE) [--by vc]`` — ASCII
  chart of one sliced metric of a metrics artifact (``list`` as METRIC
  enumerates the artifact's metrics).
* ``diagnose DIGEST [--compare DIGEST] [--json]`` — automated
  root-cause forensics over an observed run's artifacts
  (:mod:`repro.analysis.forensics`): per-hop latency decomposition,
  backpressure attribution with saturation trees, fence critical
  paths and topology heatmaps.  The diagnosis is derived on demand and
  goes to stdout or ``-o``; nothing is stored beside the artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from ...observe.artifacts import (
    find_artifact,
    list_artifacts,
    load_artifact,
    observe_dir,
)
from ..cli import add_output, write_output


def register(sub, cache_dir: argparse.ArgumentParser) -> None:
    trace_parser = sub.add_parser(
        "trace", help="export or list recorded packet traces"
    )
    actions = trace_parser.add_subparsers(dest="action", required=True)
    list_parser = actions.add_parser(
        "list", parents=[cache_dir],
        help="every observability artifact beside the cache")
    list_parser.set_defaults(handler=_cmd_trace_list)
    export_parser = actions.add_parser(
        "export", parents=[cache_dir],
        help="one trace artifact as Chrome/Perfetto JSON")
    source = export_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--digest",
        help="config digest (or unique prefix) of the run",
    )
    source.add_argument(
        "--input",
        "-i",
        help="read this trace artifact file instead of resolving a "
        "digest against the cache",
    )
    export_parser.add_argument(
        "--packet",
        default=None,
        metavar="NODE,SEQ",
        help="only this packet's lifecycle (its stable trace identity: "
        "injecting node id, per-chip sequence number)",
    )
    add_output(export_parser)
    export_parser.set_defaults(handler=_cmd_trace_export)

    timeline_parser = sub.add_parser(
        "timeline", parents=[cache_dir],
        help="ASCII-chart one sliced metric of a metrics artifact",
    )
    timeline_parser.add_argument(
        "metric",
        metavar="METRIC",
        help="the sliced metric (e.g. machine/in_flight); 'list' "
        "enumerates the artifact's metrics",
    )
    source = timeline_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--digest",
        help="resolve the metrics artifact by config digest (or unique "
        "prefix) under <cache-dir>/observe",
    )
    source.add_argument(
        "--artifact",
        help="path of the metrics artifact to read",
    )
    timeline_parser.add_argument(
        "--by",
        choices=("vc",),
        default=None,
        help="expand the metric into one series per sub-resource (vc: "
        "per-virtual-channel, e.g. timeline link/host0.out/occupancy "
        "--by vc charts every link/host0.out/vc<k>/occupancy)",
    )
    timeline_parser.set_defaults(handler=_cmd_timeline)

    diagnose_parser = sub.add_parser(
        "diagnose", parents=[cache_dir],
        help="root-cause forensics over an observed run's artifacts",
    )
    diagnose_parser.add_argument(
        "digest",
        help="config digest (or unique prefix) of an observed run with "
        "a metrics artifact beside the cache",
    )
    diagnose_parser.add_argument(
        "--compare",
        default=None,
        metavar="DIGEST",
        help="diff the diagnosis against a second observed run "
        "(policy-ablation forensics)",
    )
    diagnose_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diagnosis (or the comparison) as JSON",
    )
    add_output(diagnose_parser)
    diagnose_parser.set_defaults(handler=_cmd_diagnose)


def _find(args: argparse.Namespace, digest: str, layer: str,
          hint: str = "") -> Path:
    """The ``layer`` artifact of ``digest`` (or a unique prefix)."""
    directory = observe_dir(Path(args.cache_dir))
    path = find_artifact(directory, digest, layer)
    if path is None:
        raise ValueError(f"no {layer} artifact for digest {digest!r} "
                         f"under {directory}{hint}")
    return path


def _cmd_trace_list(args: argparse.Namespace) -> int:
    from ...analysis.report import format_table

    directory = observe_dir(Path(args.cache_dir))
    rows = list_artifacts(directory)
    if not rows:
        print(f"no observability artifacts under {directory}", file=sys.stderr)
        return 0
    print(format_table(
        ("digest", "layer", "bytes", "path"),
        [[row["digest"][:16], row["layer"], str(row["bytes"]), row["path"]]
         for row in rows]))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from ...observe.trace import chrome_trace_events

    if args.input is not None:
        path = Path(args.input)
    else:
        path = _find(args, args.digest, "trace")
    artifact = load_artifact(path)
    if artifact.get("layer") != "trace":
        raise ValueError(
            f"{path} is a {artifact.get('layer')!r} artifact, not a trace")
    machines = artifact["machines"]
    if args.packet is not None:
        packet_id = _parse_packet(args.packet)
        machines = [
            {**machine,
             "spans": [span for span in machine.get("spans", [])
                       if list(span.get("trace_id", [])) == packet_id]}
            for machine in machines
        ]
        if not any(machine["spans"] for machine in machines):
            raise ValueError(f"no spans for packet {args.packet} in {path}")
    events = []
    for pid, machine in enumerate(machines):
        events.extend(chrome_trace_events(machine, pid=pid))
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    write_output(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _parse_packet(spec: str) -> List[int]:
    """Parse the ``--packet NODE,SEQ`` stable trace identity."""
    parts = spec.split(",")
    try:
        node, seq = (int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"--packet expects NODE,SEQ integers, got {spec!r}") from None
    if node < 0 or seq < 0:
        raise ValueError(f"--packet ids must be non-negative, got {spec!r}")
    return [node, seq]


def _cmd_timeline(args: argparse.Namespace) -> int:
    from ...analysis.timeline import available_metrics, render_timeline

    if args.artifact is not None:
        path = Path(args.artifact)
    else:
        path = _find(args, args.digest, "metrics")
    artifact = load_artifact(path)
    if args.metric == "list":
        for kind, name in available_metrics(artifact):
            print(f"{kind:8s}{name}")
        return 0
    print(render_timeline(artifact, args.metric, by=args.by))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from ...analysis.forensics import (
        compare_diagnoses,
        diagnose_run,
        render_comparison,
        render_diagnosis,
    )

    def diagnose_one(digest_prefix: str) -> dict:
        metrics_path = _find(
            args, digest_prefix, "metrics",
            hint="; run the configuration with --observe first")
        metrics = load_artifact(metrics_path)
        digest = str(metrics.get("digest")
                     or metrics_path.name.split(".")[0])
        trace_path = find_artifact(metrics_path.parent, digest, "trace")
        trace = load_artifact(trace_path) if trace_path is not None else None
        return {"digest": digest, "layer": "diagnosis",
                "machines": diagnose_run(metrics, trace)}

    diagnosis = diagnose_one(args.digest)
    if args.compare is not None:
        diagnosis = compare_diagnoses(diagnosis, diagnose_one(args.compare))
    if args.json:
        text = json.dumps(diagnosis, sort_keys=True, indent=2) + "\n"
    elif args.compare is not None:
        text = render_comparison(diagnosis)
    else:
        text = render_diagnosis(diagnosis["digest"], diagnosis["machines"])
    write_output(args, text)
    return 0
