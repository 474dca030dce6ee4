"""Analysis of closed-loop workload sweeps (:mod:`repro.workload`).

A throughput-vs-window curve has the complementary shape to the
open-loop latency-vs-load curve: accepted throughput rises with the
outstanding window while latency stays near zero-load, then the fabric
saturates and additional outstanding requests only queue — throughput
plateaus and latency grows linearly in ``W`` (Little's law).  The
**knee** is the smallest window that already achieves (a configurable
fraction of) the plateau throughput: the window an application needs to
keep the network busy, and the point past which deeper pipelining buys
only latency.

The module also renders the closed-vs-open comparison the subsystem
exists for: the closed-loop plateau against the open-loop saturation
throughput of the same (pattern, routing) curve, and per-window latency
slowdown relative to the open-loop zero-load latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .report import format_table
from .saturation import SaturationAnalysis, fault_count

__all__ = [
    "DEFAULT_KNEE_FRACTION",
    "WindowSweepAnalysis",
    "detect_knee",
    "analyze_window_sweep",
    "group_window_sweep_runs",
    "window_sweep_table",
    "window_sweep_tables",
    "closed_vs_open_table",
    "phase_loop_table",
]

DEFAULT_KNEE_FRACTION = 0.95


def detect_knee(
    windows: Sequence[int],
    throughputs: Sequence[float],
    knee_fraction: float = DEFAULT_KNEE_FRACTION,
) -> int:
    """The smallest window achieving ``knee_fraction`` of peak throughput.

    ``windows`` must be sorted ascending.  Degenerate curves are handled
    conservatively: a flat curve (including all-zero throughput) knees at
    the smallest window, and a curve still rising at the largest window
    knees at that largest window — the sweep simply did not reach the
    plateau, which callers can detect by comparing against
    ``windows[-1]``.
    """
    if len(windows) != len(throughputs):
        raise ValueError("windows and throughputs must have equal length")
    if not windows:
        raise ValueError("knee detection needs at least one point")
    if list(windows) != sorted(windows):
        raise ValueError("windows must be sorted ascending")
    if not 0.0 < knee_fraction <= 1.0:
        raise ValueError("knee fraction must be in (0, 1]")
    threshold = max(throughputs) * knee_fraction
    for window, throughput in zip(windows, throughputs):
        if throughput >= threshold:
            return window
    raise AssertionError("unreachable: the peak itself meets the threshold")


@dataclass(frozen=True)
class WindowSweepAnalysis:
    """The outcome of knee detection over one window sweep."""

    pattern: str
    routing: str
    knee_fraction: float
    knee_window: int
    #: (window, accepted load, mean transaction latency ns) per point.
    points: Tuple[Tuple[int, float, float], ...]

    @property
    def plateau_accepted_load(self) -> float:
        """The curve's self-throttled throughput ceiling."""
        return max(accepted for __, accepted, __unused in self.points)

    @property
    def latency_at_knee_ns(self) -> float:
        for window, __, latency in self.points:
            if window == self.knee_window:
                return latency
        raise AssertionError("knee window missing from points")

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "routing": self.routing,
            "knee_fraction": self.knee_fraction,
            "knee_window": self.knee_window,
            "plateau_accepted_load": self.plateau_accepted_load,
            "latency_at_knee_ns": self.latency_at_knee_ns,
            "points": [list(point) for point in self.points],
        }


def _point_from_run(
    run: Mapping[str, object],
) -> Optional[Tuple[int, float, float, str, str]]:
    result = run.get("result")
    if not isinstance(result, Mapping) or "window" not in result:
        return None
    transactions = result.get("transactions")
    if not isinstance(transactions, Mapping):
        return None
    latency = transactions.get("latency_ns")
    if not isinstance(latency, Mapping):
        return None
    return (
        int(result["window"]),
        float(result.get("accepted_load", 0.0)),
        float(latency["mean"]),
        str(result.get("pattern", "")),
        str(result.get("routing", "")),
    )


def analyze_window_sweep(
    runs: Iterable[Mapping[str, object]],
    knee_fraction: float = DEFAULT_KNEE_FRACTION,
) -> WindowSweepAnalysis:
    """Knee analysis over the run records of one window sweep.

    ``runs`` are runner records of ``measure_window_point`` results
    (fresh or loaded from a results payload); they must all belong to
    one (pattern, routing) curve.
    """
    points: List[Tuple[int, float, float]] = []
    patterns = set()
    routings = set()
    for run in runs:
        extracted = _point_from_run(run)
        if extracted is None:
            continue
        window, accepted, latency, pattern, routing = extracted
        points.append((window, accepted, latency))
        patterns.add(pattern)
        routings.add(routing)
    if not points:
        raise ValueError("no completed window-sweep points in these runs")
    if len(patterns) > 1:
        raise ValueError(
            f"window sweep mixes traffic patterns: {sorted(patterns)}")
    if len(routings) > 1:
        raise ValueError(
            f"window sweep mixes routing policies: {sorted(routings)}")
    points.sort(key=lambda p: p[0])
    windows = [p[0] for p in points]
    throughputs = [p[1] for p in points]
    return WindowSweepAnalysis(
        pattern=patterns.pop(),
        routing=routings.pop(),
        knee_fraction=knee_fraction,
        knee_window=detect_knee(windows, throughputs, knee_fraction),
        points=tuple(points))


def group_window_sweep_runs(
    runs: Iterable[Mapping[str, object]],
) -> Dict[Tuple[str, str], List[Mapping[str, object]]]:
    """Split run records into per-curve groups keyed ``(pattern, routing)``."""
    groups: Dict[Tuple[str, str], List[Mapping[str, object]]] = {}
    for run in runs:
        extracted = _point_from_run(run)
        if extracted is None:
            continue
        __, __unused, __a, pattern, routing = extracted
        groups.setdefault((pattern, routing), []).append(run)
    return groups


def window_sweep_table(
    runs: Iterable[Mapping[str, object]],
    knee_fraction: float = DEFAULT_KNEE_FRACTION,
    title: str = "",
) -> str:
    """A throughput/latency-vs-window table plus the detected knee."""
    analysis = analyze_window_sweep(runs, knee_fraction)
    rows = [[f"{window:d}", f"{accepted:.3f}", f"{latency:.1f}"]
            for window, accepted, latency in analysis.points]
    table = format_table(
        ("window", "accepted load", "mean latency ns"), rows)
    verdict = (f"knee at window {analysis.knee_window} "
               f"({analysis.knee_fraction:g} of plateau accepted load "
               f"{analysis.plateau_accepted_load:.3f})")
    header = f"{title}\n" if title else ""
    curve = (f"{analysis.pattern}/{analysis.routing}" if analysis.routing
             else analysis.pattern)
    return f"{header}{table}\n{curve}: {verdict}"


def window_sweep_tables(
    runs: Iterable[Mapping[str, object]],
    knee_fraction: float = DEFAULT_KNEE_FRACTION,
    title: str = "",
) -> str:
    """Per-curve window tables for a mixed record stream."""
    groups = group_window_sweep_runs(runs)
    if not groups:
        raise ValueError("no completed window-sweep points in these runs")
    tables = []
    for (pattern, routing) in sorted(groups):
        curve = f"{pattern}/{routing}" if routing else pattern
        label = f"{title} [{curve}]" if title else curve
        tables.append(window_sweep_table(groups[(pattern, routing)],
                                         knee_fraction, title=label))
    return "\n\n".join(tables)


def closed_vs_open_table(
    window_analysis: WindowSweepAnalysis,
    open_analysis: SaturationAnalysis,
    title: str = "",
) -> str:
    """Closed-loop windows against the open-loop curve they self-throttle to.

    One row per window: accepted load, what fraction of the open-loop
    saturation throughput that is, and the latency slowdown relative to
    the open-loop zero-load latency.  The verdict line compares the
    closed-loop plateau with the open-loop ceiling — the sanity bound
    the closed-loop benchmarks pin (a window can fill the fabric but
    never push more through it than open-loop saturation).
    """
    if (window_analysis.pattern, window_analysis.routing) != (
            open_analysis.pattern, open_analysis.routing):
        raise ValueError(
            "closed/open comparison needs matching (pattern, routing): "
            f"{window_analysis.pattern}/{window_analysis.routing} vs "
            f"{open_analysis.pattern}/{open_analysis.routing}")
    open_ceiling = open_analysis.max_accepted_load
    zero_load = open_analysis.zero_load_latency_ns
    rows = []
    for window, accepted, latency in window_analysis.points:
        fraction = accepted / open_ceiling if open_ceiling else float("nan")
        slowdown = latency / zero_load if zero_load else float("nan")
        rows.append([f"{window:d}", f"{accepted:.3f}", f"{fraction:.2f}",
                     f"{slowdown:.2f}x"])
    table = format_table(
        ("window", "accepted load", "of open-loop sat", "latency slowdown"),
        rows)
    curve = f"{window_analysis.pattern}/{window_analysis.routing}"
    plateau = window_analysis.plateau_accepted_load
    verdict = (f"closed-loop plateau {plateau:.3f} vs open-loop saturation "
               f"throughput {open_ceiling:.3f} "
               f"({plateau / open_ceiling:.2f}x)" if open_ceiling else
               f"closed-loop plateau {plateau:.3f} (open-loop accepted zero)")
    header = f"{title}\n" if title else ""
    return f"{header}{table}\n{curve}: {verdict}"


def _phase_row_from_run(
    run: Mapping[str, object],
) -> Optional[Tuple[str, str, int, int, int, float, float]]:
    result = run.get("result")
    if not isinstance(result, Mapping) or "mean_iteration_ns" not in result:
        return None
    return (
        str(result.get("pattern", "")),
        str(result.get("routing", "")),
        int(result.get("window", 0)),
        int(result.get("messages_per_node", 0)),
        len(result.get("iterations", []) or []),
        float(result["mean_iteration_ns"]),
        float(result.get("mean_fence_wait_fraction", 0.0)),
    )


def phase_loop_table(
    runs: Iterable[Mapping[str, object]],
    title: str = "",
) -> str:
    """One row per phase-loop configuration: iteration time and fence wait.

    The comparison format for ``phase-loop-*`` sweeps, which fan the
    routing-policy axis out over one fence-synchronized workload — the
    closed-loop analogue of the routing-ablation tables.  When any run's
    params carry a fault count (the ``fault-phase-loop-*`` sweeps), a
    ``faults`` column names it.
    """
    rows = []
    for run in runs:
        extracted = _phase_row_from_run(run)
        if extracted is not None:
            rows.append((fault_count(run), *extracted))
    if not rows:
        raise ValueError("no completed phase-loop runs in these records")
    rows.sort(key=lambda r: (r[1], r[2], r[3], r[4], r[0] or 0))
    faulted = any(row[0] is not None for row in rows)
    formatted = [[pattern, routing,
                  *([f"{faults or 0:d}"] if faulted else []),
                  f"{window:d}", f"{messages:d}", f"{iterations:d}",
                  f"{iteration_ns:.1f}", f"{fence_fraction:.2f}"]
                 for (faults, pattern, routing, window, messages, iterations,
                      iteration_ns, fence_fraction) in rows]
    table = format_table(
        ("pattern", "routing", *(["faults"] if faulted else []), "window",
         "msgs/node", "iters", "mean iteration ns", "fence-wait frac"),
        formatted)
    return f"{title}\n{table}" if title else table
