"""Saturation-point detection for open-loop load sweeps.

A latency-vs-offered-load curve has the classic interconnect shape: flat
near the zero-load latency, then diverging as offered load approaches
the saturation throughput.  Following standard practice we define the
saturation point as the offered load at which mean latency first exceeds
a multiple (default 3x) of the zero-load latency, interpolating linearly
between the bracketing load points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .report import format_table

__all__ = [
    "DEFAULT_LATENCY_MULTIPLE",
    "SaturationAnalysis",
    "detect_saturation",
    "analyze_load_sweep",
    "fault_count",
    "fault_degradation_table",
    "group_load_sweep_runs",
    "load_sweep_table",
    "load_sweep_tables",
]

DEFAULT_LATENCY_MULTIPLE = 3.0


@dataclass(frozen=True)
class SaturationAnalysis:
    """The outcome of saturation detection over one load sweep."""

    pattern: str
    zero_load_latency_ns: float
    latency_multiple: float
    saturation_load: Optional[float]
    #: (offered load, mean request latency ns, accepted load) per point.
    points: Tuple[Tuple[float, float, float], ...]
    #: Routing policy the curve was measured under ("" for pre-routing
    #: records that did not carry the field).
    routing: str = ""

    @property
    def saturated(self) -> bool:
        return self.saturation_load is not None

    @property
    def max_accepted_load(self) -> float:
        """The highest accepted load any point sustained — the curve's
        throughput ceiling, the routing-ablation comparison metric."""
        return max(accepted for __, __unused, accepted in self.points)

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "routing": self.routing,
            "zero_load_latency_ns": self.zero_load_latency_ns,
            "latency_multiple": self.latency_multiple,
            "saturation_load": self.saturation_load,
            "points": [list(point) for point in self.points],
        }


def detect_saturation(
    loads: Sequence[float],
    latencies: Sequence[float],
    latency_multiple: float = DEFAULT_LATENCY_MULTIPLE,
) -> Optional[float]:
    """Offered load where latency first crosses the divergence threshold.

    ``loads`` must be sorted ascending; the zero-load latency is taken
    from the lowest load point.  Returns ``None`` when the curve stays
    below ``latency_multiple x`` zero-load latency everywhere (the sweep
    never saturated).
    """
    if len(loads) != len(latencies):
        raise ValueError("loads and latencies must have equal length")
    if not loads:
        raise ValueError("saturation detection needs at least one point")
    if list(loads) != sorted(loads):
        raise ValueError("loads must be sorted ascending")
    if latency_multiple <= 1.0:
        raise ValueError("latency multiple must exceed 1")
    threshold = latencies[0] * latency_multiple
    for i, latency in enumerate(latencies):
        if latency <= threshold:
            continue
        if i == 0:
            return loads[0]
        prev_load, prev_lat = loads[i - 1], latencies[i - 1]
        frac = (threshold - prev_lat) / (latency - prev_lat)
        return prev_load + frac * (loads[i] - prev_load)
    return None


def _point_from_run(
    run: Mapping[str, object],
) -> Optional[Tuple[float, float, float, str, str]]:
    result = run.get("result")
    if not isinstance(result, Mapping):
        return None
    classes = result.get("classes")
    if not isinstance(classes, Mapping):
        return None
    request = classes.get("request")
    if not isinstance(request, Mapping):
        return None
    latency = request.get("latency_ns")
    if not isinstance(latency, Mapping):
        return None
    return (
        float(result["offered_load"]),
        float(latency["mean"]),
        float(result.get("accepted_load", 0.0)),
        str(result.get("pattern", "")),
        str(result.get("routing", "")),
    )


def analyze_load_sweep(
    runs: Iterable[Mapping[str, object]],
    latency_multiple: float = DEFAULT_LATENCY_MULTIPLE,
) -> SaturationAnalysis:
    """Saturation analysis over the run records of one load sweep.

    ``runs`` are runner records of ``load_sweep_point`` results (fresh or
    loaded from a results payload); they are sorted by offered load and
    reduced to the mean request latency per point.
    """
    points: List[Tuple[float, float, float]] = []
    patterns = set()
    routings = set()
    for run in runs:
        extracted = _point_from_run(run)
        if extracted is None:
            continue
        load, latency, accepted, pattern, routing = extracted
        points.append((load, latency, accepted))
        patterns.add(pattern)
        routings.add(routing)
    if not points:
        raise ValueError("no completed load-sweep points in these runs")
    if len(patterns) > 1:
        raise ValueError(
            f"load sweep mixes traffic patterns: {sorted(patterns)}")
    if len(routings) > 1:
        raise ValueError(
            f"load sweep mixes routing policies: {sorted(routings)}")
    points.sort(key=lambda p: p[0])
    loads = [p[0] for p in points]
    latencies = [p[1] for p in points]
    return SaturationAnalysis(
        pattern=patterns.pop(),
        routing=routings.pop(),
        zero_load_latency_ns=latencies[0],
        latency_multiple=latency_multiple,
        saturation_load=detect_saturation(loads, latencies, latency_multiple),
        points=tuple(points))


def fault_count(run: Mapping[str, object]) -> Optional[int]:
    """The run's ``num_faults`` parameter; ``None`` when it has none.

    Healthy and faulted points share one surface and their records do
    not echo the fault count, so tables read it from the run's params
    to tell apart points that would otherwise look identical.
    """
    params = run.get("params")
    if isinstance(params, Mapping) and "num_faults" in params:
        return int(params["num_faults"])
    return None


def group_load_sweep_runs(
    runs: Iterable[Mapping[str, object]],
) -> Dict[Tuple[str, str, Optional[int]], List[Mapping[str, object]]]:
    """Split run records into per-curve groups.

    Keyed ``(pattern, routing, fault count)``, the count ``None`` for
    runs whose params carry none.  Routing-ablation sweeps mix several
    adversarial patterns (and report pages mix several policies, fault
    sweeps several fault counts) in one record stream; each group is
    one latency-vs-load curve :func:`analyze_load_sweep` accepts.
    """
    groups: Dict[Tuple[str, str, Optional[int]], List[Mapping[str, object]]] = {}
    for run in runs:
        extracted = _point_from_run(run)
        if extracted is None:
            continue
        __, __unused, __a, pattern, routing = extracted
        groups.setdefault((pattern, routing, fault_count(run)), []).append(run)
    return groups


def load_sweep_table(
    runs: Iterable[Mapping[str, object]],
    latency_multiple: float = DEFAULT_LATENCY_MULTIPLE,
    title: str = "",
) -> str:
    """A latency-vs-offered-load table plus the detected saturation point."""
    analysis = analyze_load_sweep(runs, latency_multiple)
    rows = [[f"{load:.3f}", f"{latency:.1f}", f"{accepted:.3f}"]
            for load, latency, accepted in analysis.points]
    table = format_table(
        ("offered load", "mean latency ns", "accepted load"), rows)
    if analysis.saturated:
        verdict = (f"saturation at offered load ~{analysis.saturation_load:.3f} "
                   f"({analysis.latency_multiple:g}x zero-load latency "
                   f"{analysis.zero_load_latency_ns:.1f} ns)")
    else:
        verdict = (f"no saturation within sweep "
                   f"(latency stayed under {analysis.latency_multiple:g}x "
                   f"zero-load {analysis.zero_load_latency_ns:.1f} ns)")
    header = f"{title}\n" if title else ""
    curve = (f"{analysis.pattern}/{analysis.routing}" if analysis.routing
             else analysis.pattern)
    return f"{header}{table}\n{curve}: {verdict}"


def fault_degradation_table(
    runs: Iterable[Mapping[str, object]],
    title: str = "",
) -> str:
    """One row per fault count: the degradation view of a fault sweep.

    ``runs`` are the faulted points of one (pattern, routing) curve,
    one point per fault count (``fault-sweep-*`` sweeps hold the
    offered load fixed and vary the number of dead cables).  The
    closing line compares the accepted load at the fewest and the most
    faults.
    """
    rows = []
    for run in runs:
        extracted = _point_from_run(run)
        if extracted is not None:
            rows.append((fault_count(run) or 0, *extracted))
    if not rows:
        raise ValueError("no completed load-sweep points in these runs")
    rows.sort(key=lambda row: row[0])
    table = format_table(
        ("faults", "offered load", "mean latency ns", "accepted load"),
        [[f"{faults:d}", f"{load:.3f}", f"{latency:.1f}", f"{accepted:.3f}"]
         for faults, load, latency, accepted, __, __unused in rows])
    first, last = rows[0], rows[-1]
    pattern, routing = first[4], first[5]
    curve = f"{pattern}/{routing}" if routing else pattern
    verdict = f"accepted load {first[3]:.3f} at {first[0]} faults"
    if len(rows) > 1:
        verdict += f" -> {last[3]:.3f} at {last[0]} faults"
    header = f"{title}\n" if title else ""
    return f"{header}{table}\n{curve}: {verdict}"


def load_sweep_tables(
    runs: Iterable[Mapping[str, object]],
    latency_multiple: float = DEFAULT_LATENCY_MULTIPLE,
    title: str = "",
) -> str:
    """Per-curve latency-vs-load tables for a mixed record stream.

    Groups the runs with :func:`group_load_sweep_runs` and renders one
    :func:`load_sweep_table` per curve — the report format for
    ``route-ablation-*`` sweeps, which mix adversarial patterns on
    purpose.  Faulted points measured at a single offered load per
    fault count (``fault-sweep-*`` sweeps) render as one
    :func:`fault_degradation_table` per (pattern, routing) instead, the
    fault count as its row axis.  Raises ``ValueError`` when no group
    yields any points.
    """
    groups = group_load_sweep_runs(runs)
    if not groups:
        raise ValueError("no completed load-sweep points in these runs")
    faulted: Dict[Tuple[str, str], List[Mapping[str, object]]] = {}
    for (pattern, routing, faults), members in groups.items():
        if faults is not None:
            faulted.setdefault((pattern, routing), []).extend(members)
    degraded = {
        curve: members for curve, members in faulted.items()
        if len(members) == len({fault_count(run) for run in members})}
    tables = []
    for key, members in groups.items():
        pattern, routing, faults = key
        if faults is not None and (pattern, routing) in degraded:
            continue
        curve = f"{pattern}/{routing}" if routing else pattern
        if faults is not None:
            curve = f"{curve}, {faults} faults"
        label = f"{title} [{curve}]" if title else curve
        tables.append(((pattern, routing, faults or 0, 0),
                       load_sweep_table(members, latency_multiple,
                                        title=label)))
    for (pattern, routing), members in degraded.items():
        curve = f"{pattern}/{routing}" if routing else pattern
        label = f"{curve} by fault count"
        label = f"{title} [{label}]" if title else label
        fewest = min(fault_count(run) for run in members)
        tables.append(((pattern, routing, fewest, 1),
                       fault_degradation_table(members, title=label)))
    tables.sort(key=lambda item: item[0])
    return "\n\n".join(table for __, table in tables)
