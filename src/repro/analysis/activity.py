"""Machine-activity traces — the Figure 12 renderer.

Figure 12 plots, for a window of wall-clock time, which hardware
components are busy: channel columns (position packets red, force packets
green), GC integration columns, and PPIM streaming columns.  This module
builds the equivalent trace from the time-step phase model and renders it
as an ASCII heat strip (one row per time bin, one column per component),
which the Fig. 12 benchmark prints for compression-on and -off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..fullsim.timestep import TimestepBreakdown
from ..fullsim.traffic import StepTraffic


@dataclass(frozen=True)
class Interval:
    """A busy interval of one component."""

    start_ns: float
    end_ns: float


@dataclass
class ActivityTrace:
    """Busy intervals per component over one or more time steps."""

    components: List[str]
    intervals: Dict[str, List[Interval]] = field(default_factory=dict)
    end_ns: float = 0.0

    def add(self, component: str, start_ns: float, end_ns: float) -> None:
        if component not in self.components:
            raise ValueError(f"unknown component {component!r}")
        if end_ns < start_ns:
            raise ValueError("interval ends before it starts")
        self.intervals.setdefault(component, []).append(
            Interval(start_ns, end_ns))
        self.end_ns = max(self.end_ns, end_ns)

    def utilization(self, component: str, start: float, end: float) -> float:
        """Busy fraction of ``component`` within [start, end)."""
        if end <= start:
            return 0.0
        busy = 0.0
        for iv in self.intervals.get(component, []):
            busy += max(0.0, min(iv.end_ns, end) - max(iv.start_ns, start))
        return busy / (end - start)


COMPONENTS = ["channel:positions", "channel:forces", "gc:integration",
              "ppim:pairs"]


def trace_from_breakdowns(breakdowns: Sequence[TimestepBreakdown],
                          traffics: Sequence[StepTraffic]) -> ActivityTrace:
    """Lay consecutive time steps' phases onto a shared timeline.

    Within a step: positions stream out first (the channels carry position
    packets), forces return over the tail of the window; PPIM streaming
    overlaps the channel window; integration and sync serialize after.
    """
    if len(breakdowns) != len(traffics):
        raise ValueError("breakdowns and traffics must align")
    trace = ActivityTrace(components=list(COMPONENTS))
    clock = 0.0
    for breakdown, traffic in zip(breakdowns, traffics):
        window = max(breakdown.channel_ns, breakdown.ppim_ns)
        start = clock + breakdown.pipeline_fill_ns
        total_bits = max(traffic.position_bits + traffic.force_bits, 1)
        pos_frac = traffic.position_bits / total_bits
        pos_end = start + breakdown.channel_ns * pos_frac
        force_end = start + breakdown.channel_ns
        trace.add("channel:positions", start, pos_end)
        trace.add("channel:forces", pos_end, force_end)
        trace.add("ppim:pairs", start, start + breakdown.ppim_ns)
        integ_start = clock + breakdown.pairwise_phase_ns
        trace.add("gc:integration", integ_start,
                  integ_start + breakdown.integration_ns)
        clock += breakdown.total_ns
        trace.end_ns = max(trace.end_ns, clock)
    return trace


_SHADES = " .:-=+*#%@"


def render_ascii(trace: ActivityTrace, bins: int = 40,
                 bin_labels: bool = True) -> str:
    """Render the trace as rows of utilization shades (Fig. 12 style)."""
    if bins < 1:
        raise ValueError("need at least one bin")
    width = trace.end_ns / bins if trace.end_ns > 0 else 1.0
    header = " time(ns) | " + " | ".join(
        f"{name:^18}" for name in trace.components)
    lines = [header, "-" * len(header)]
    for b in range(bins):
        start, end = b * width, (b + 1) * width
        cells = []
        for name in trace.components:
            u = trace.utilization(name, start, end)
            shade = _SHADES[min(int(u * (len(_SHADES) - 1) + 0.5),
                                len(_SHADES) - 1)]
            cells.append(shade * 18)
        label = f"{start:9.0f}" if bin_labels else " " * 9
        lines.append(f"{label} | " + " | ".join(cells))
    return "\n".join(lines)
