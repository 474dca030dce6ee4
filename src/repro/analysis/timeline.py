"""ASCII timelines over observability metrics artifacts.

``repro-runner timeline METRIC`` renders one sliced metric of
a ``<digest>.metrics.json`` artifact (:mod:`repro.observe.artifacts`)
as an ASCII chart: slice midpoints on the x axis, per-slice values on
the y axis, one series per machine the run built.  Slice gauges plot
their time-weighted means; slice counters plot per-slice event counts.

``--by vc`` expands a metric family across virtual channels: metric
names like ``link/<name>/vc<k>/occupancy`` share the family
``link/<name>/occupancy``, and ``timeline link/<name>/occupancy --by
vc`` charts one series per channel (``vc0``, ``vc1``, ...) instead of
requiring one invocation per channel.

Built on the same renderer as ``report --plot``
(:func:`repro.analysis.plot.ascii_chart`), so output is deterministic
and test-assertable.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

from .plot import ascii_chart

__all__ = ["available_metrics", "render_timeline", "timeline_points"]


def _machine_payloads(artifact: Mapping) -> List[Mapping]:
    machines = artifact.get("machines")
    if not isinstance(machines, list) or not machines:
        raise ValueError("not a metrics artifact: no machines list")
    return machines


def available_metrics(artifact: Mapping) -> List[Tuple[str, str]]:
    """All plottable ``(kind, name)`` pairs across the run's machines.

    ``kind`` is ``gauge`` or ``counter``; sorted for stable help text.
    """
    names = set()
    for machine in _machine_payloads(artifact):
        for name in machine.get("gauges", {}):
            names.add(("gauge", name))
        for name in machine.get("counters", {}):
            names.add(("counter", name))
    return sorted(names)


def _slice_series(machine: Mapping, name: str) -> Optional[List[float]]:
    values = machine.get("gauges", {}).get(name)
    if values is None:
        values = machine.get("counters", {}).get(name)
    return values


def _points(machine: Mapping, values: List[float]) -> List[Tuple[float, float]]:
    period = float(machine["period_ns"])
    return [
        ((slice_index + 0.5) * period, float(value))
        for slice_index, value in enumerate(values)
    ]


def _vc_pattern(metric: str) -> "re.Pattern[str]":
    """The per-VC name pattern of one metric family.

    ``link/<name>/occupancy`` expands to every recorded
    ``link/<name>/vc<k>/occupancy``: the channel component slots in
    before the final path segment.
    """
    head, sep, leaf = metric.rpartition("/")
    if not sep:
        raise ValueError(
            f"--by vc needs a path-shaped metric family, got {metric!r}")
    return re.compile(
        rf"^{re.escape(head)}/vc(\d+)/{re.escape(leaf)}$")


def timeline_points(
    artifact: Mapping,
    metric: str,
    by: Optional[str] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-machine ``(slice_midpoint_ns, value)`` series for one metric.

    ``metric`` names a slice gauge or slice counter; machines that never
    recorded it are skipped.  With ``by="vc"``, ``metric`` names a
    family instead and every ``.../vc<k>/...`` member becomes its own
    series (``vc<k>``, or ``m<i>/vc<k>`` across multiple machines).
    Raises ``ValueError`` (listing what *is* available) when nothing
    matches.
    """
    if by not in (None, "vc"):
        raise ValueError(f"unsupported --by {by!r}; expected 'vc'")
    machines = _machine_payloads(artifact)
    series: Dict[str, List[Tuple[float, float]]] = {}
    if by == "vc":
        pattern = _vc_pattern(metric)
        for index, machine in enumerate(machines):
            names = set(machine.get("gauges", {})) | set(
                machine.get("counters", {}))
            matched = sorted(
                (int(match.group(1)), name)
                for name in names
                for match in (pattern.match(name),)
                if match is not None
            )
            for channel, name in matched:
                label = (
                    f"vc{channel}" if len(machines) == 1
                    else f"m{index}/vc{channel}"
                )
                series[label] = _points(
                    machine, _slice_series(machine, name))
    else:
        for index, machine in enumerate(machines):
            values = _slice_series(machine, metric)
            if values is None:
                continue
            series[f"m{index}"] = _points(machine, values)
    if not series:
        names = ", ".join(name for __, name in available_metrics(artifact))
        what = f"family {metric!r} (--by vc)" if by else f"metric {metric!r}"
        raise ValueError(
            f"{what} not in this artifact; available: {names}")
    return series


def render_timeline(artifact: Mapping, metric: str,
                    width: int = 64, height: int = 16,
                    by: Optional[str] = None) -> str:
    """The ASCII timeline chart for one metric of one artifact."""
    series = timeline_points(artifact, metric, by=by)
    digest = str(artifact.get("digest", ""))[:12]
    title_metric = f"{metric} by {by}" if by else metric
    return ascii_chart(
        series,
        width=width,
        height=height,
        x_label="t_ns",
        y_label=metric,
        title=f"{title_metric} @ {digest}" if digest else title_metric,
        force_legend=len(series) > 1 or by is not None,
    )
