"""Fence-synchronized bulk-synchronous phase workloads.

The paper's headline metric is time per MD iteration, and an MD
iteration on Anton 3 is bulk-synchronous: a burst of position/halo
exports, a network fence so every node knows the exports landed, a
burst of force returns, and another fence before integration.
:class:`PhaseLoopHarness` reproduces that shape over a
:class:`~repro.netsim.machine.NetworkMachine`: each
:class:`PhaseSpec` is a closed-loop burst (every node sends a fixed
message count, at most ``window`` in flight, via
:class:`~repro.workload.window.ClosedLoopDriver`) followed by a
machine-wide network fence run by the real
:class:`~repro.fence.engine.FenceEngine`.

The harness reports what closed-loop evaluation is for: iteration time,
the per-phase split between burst transport and fence synchronization,
per-node finish-time spread (load imbalance the fence converts into
wait), and the fence-wait fraction — the share of the iteration a
typical node spends synchronized-but-idle rather than moving payload.

Invariants tests (and the cache-versioned experiments) rely on:

* A phase's fence is issued only after every node's burst completed
  (all transactions delivered, per :class:`ClosedLoopDriver`'s
  completion rules), and the next phase starts only after the fence
  clears — phases never overlap on the wire.
* Fences run on the real :class:`~repro.fence.engine.FenceEngine`
  (no analytic shortcut), so fence time responds to routing policy and
  congestion exactly like Figure 11 does.
* Burst transactions complete under the same write-at-commit /
  read-at-response rules (and reply-quad recycling) as the window
  harness; iteration time is the fence-to-fence wall time, never a sum
  of per-node times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..engine.seeding import derive_seed
from ..fence.engine import FenceEngine
from ..netsim.machine import NetworkMachine
from ..netsim.packet import Packet
from ..topology.torus import Coord
from ..traffic.patterns import TrafficPattern, make_pattern
from .window import ClosedLoopDriver

__all__ = ["PhaseSpec", "PhaseLoopHarness", "PhaseLoopResult",
           "md_timestep_phases"]


@dataclass(frozen=True)
class PhaseSpec:
    """One bulk-synchronous phase: a closed-loop burst, then a fence."""

    name: str
    pattern: TrafficPattern
    messages_per_node: int
    window: int = 4
    read_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.messages_per_node < 1:
            raise ValueError("messages_per_node must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def md_timestep_phases(machine: NetworkMachine,
                       messages_per_node: int = 12,
                       window: int = 4,
                       pattern: "str | TrafficPattern" = "halo",
                       read_fraction: float = 0.0) -> List[PhaseSpec]:
    """The MD-timestep phase pair: halo export burst, force-return burst.

    Both phases use the same spatial pattern (positions go out to the
    import-region neighborhood and forces come back along the reverse
    edges, which for the symmetric halo/neighbor destination sets is the
    same pattern), each followed by its fence — the
    position-export -> fence -> force-return -> fence shape of one
    Anton 3 iteration.  ``pattern`` may be a registered name or an
    already-built :class:`~repro.traffic.patterns.TrafficPattern` (e.g.
    a hotspot with a custom fraction); this is the canonical builder the
    run surface and examples share.
    """
    spatial = (pattern if isinstance(pattern, TrafficPattern)
               else make_pattern(pattern, machine.torus))
    return [
        PhaseSpec("position-export", spatial, messages_per_node, window,
                  read_fraction=read_fraction),
        PhaseSpec("force-return", spatial, messages_per_node, window,
                  read_fraction=read_fraction),
    ]


@dataclass
class PhaseLoopResult:
    """Per-iteration records plus the closed-loop summary statistics."""

    pattern: str
    routing: str
    fence_hops: int
    num_nodes: int
    iterations: List[Dict[str, object]]

    @property
    def mean_iteration_ns(self) -> float:
        return (sum(rec["iteration_ns"] for rec in self.iterations)
                / len(self.iterations))

    @property
    def mean_fence_wait_fraction(self) -> float:
        return (sum(rec["fence_wait_fraction"] for rec in self.iterations)
                / len(self.iterations))

    def phase_means(self) -> Dict[str, Dict[str, float]]:
        """Mean burst/fence split per phase name across iterations."""
        sums: Dict[str, Dict[str, float]] = {}
        for record in self.iterations:
            for phase in record["phases"]:
                entry = sums.setdefault(
                    phase["name"], {"burst_ns": 0.0, "fence_ns": 0.0,
                                    "finish_spread_ns": 0.0})
                entry["burst_ns"] += phase["burst_ns"]
                entry["fence_ns"] += phase["fence_ns"]
                entry["finish_spread_ns"] += phase["finish_spread_ns"]
        count = len(self.iterations)
        return {name: {key: value / count for key, value in entry.items()}
                for name, entry in sums.items()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "routing": self.routing,
            "fence_hops": self.fence_hops,
            "num_nodes": self.num_nodes,
            "iterations": self.iterations,
            "mean_iteration_ns": self.mean_iteration_ns,
            "mean_fence_wait_fraction": self.mean_fence_wait_fraction,
            "phase_means": self.phase_means(),
        }


class PhaseLoopHarness:
    """Runs fence-synchronized phase iterations over one machine."""

    def __init__(self, machine: NetworkMachine, phases: Sequence[PhaseSpec],
                 seed: int = 0, fence_hops: Optional[int] = None,
                 fence_engine: Optional[FenceEngine] = None) -> None:
        if not phases:
            raise ValueError("a phase loop needs at least one phase")
        self.machine = machine
        self.phases = list(phases)
        self.seed = seed
        self.engine = fence_engine or FenceEngine(machine)
        # A fence covering the live diameter synchronizes every node —
        # the global barrier an MD integration step requires.  Dead
        # links widen it past the torus diameter.
        self.fence_hops = (fence_hops if fence_hops is not None
                           else self.engine.live_diameter())
        if self.fence_hops < 0:
            raise ValueError("fence_hops must be >= 0")

    # ------------------------------------------------------------------
    # One closed-loop burst.
    # ------------------------------------------------------------------

    def _run_burst(self, phase: PhaseSpec,
                   iteration: int, phase_index: int) -> Dict[str, object]:
        machine = self.machine
        sim = machine.sim
        driver = ClosedLoopDriver(
            machine, phase.pattern,
            derive_seed(self.seed, "phase", iteration, phase_index),
            read_fraction=phase.read_fraction)
        remaining: Dict[Coord, int] = {
            node: phase.messages_per_node for node in driver.sources}
        finish_ns: Dict[Coord, float] = {}
        start_ns = sim.now

        def issue(node: Coord) -> None:
            remaining[node] -= 1
            driver.issue(node)

        def on_delivered(packet: Packet) -> None:
            completed = driver.completion(packet)
            if completed is None:
                return
            node, __ = completed
            if remaining[node] > 0:
                issue(node)
            elif driver.outstanding[node] == 0:
                finish_ns[node] = sim.now

        machine.set_delivery_hook(on_delivered)
        try:
            for node in driver.sources:
                for __ in range(min(phase.window, phase.messages_per_node)):
                    issue(node)
            sim.run_until_idle()
        finally:
            machine.set_delivery_hook(None)
        if len(finish_ns) != len(driver.sources):
            raise RuntimeError(
                f"phase {phase.name!r}: {len(finish_ns)} of "
                f"{len(driver.sources)} sources finished their burst")

        finishes = [t - start_ns for t in finish_ns.values()]
        burst_ns = max(finishes)
        return {
            "name": phase.name,
            "messages_per_node": phase.messages_per_node,
            "window": phase.window,
            "burst_ns": burst_ns,
            "finish_spread_ns": burst_ns - min(finishes),
            "mean_finish_ns": sum(finishes) / len(finishes),
        }

    # ------------------------------------------------------------------
    # Iterations.
    # ------------------------------------------------------------------

    def run_iteration(self, iteration: int = 0) -> Dict[str, object]:
        """One full phase sequence; returns the iteration record."""
        sim = self.machine.sim
        start_ns = sim.now
        phase_records: List[Dict[str, object]] = []
        fence_wait_ns = 0.0
        for phase_index, phase in enumerate(self.phases):
            record = self._run_burst(phase, iteration, phase_index)
            fence_ns = self.engine.barrier_latency(self.fence_hops)
            record["fence_ns"] = fence_ns
            # What a typical node waits at this barrier: the fence
            # propagation itself, plus the idle gap between its own
            # burst finishing and the global last finisher.
            record["mean_node_wait_ns"] = (
                fence_ns + record["burst_ns"] - record["mean_finish_ns"])
            fence_wait_ns += record["mean_node_wait_ns"]
            del record["mean_finish_ns"]
            phase_records.append(record)
        iteration_ns = sim.now - start_ns
        return {
            "iteration": iteration,
            "iteration_ns": iteration_ns,
            "phases": phase_records,
            "fence_wait_fraction": fence_wait_ns / iteration_ns,
        }

    def run(self, iterations: int = 1) -> PhaseLoopResult:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        records = [self.run_iteration(index) for index in range(iterations)]
        patterns = sorted({phase.pattern.name for phase in self.phases})
        return PhaseLoopResult(
            pattern="+".join(patterns),
            routing=self.machine.routing.name,
            fence_hops=self.fence_hops,
            num_nodes=self.machine.torus.dims.num_nodes,
            iterations=records)
