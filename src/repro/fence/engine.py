"""The machine-level network fence — Section V of the paper.

A network fence guarantees that a destination receives the fence only
after every packet sent before it, from every participating source, has
arrived.  Anton 3 implements it with fence packets that merge at router
inputs and multicast along all valid paths; a fence with ``hops = k``
synchronizes all sources within k torus hops.

The inter-node part of the fence is simulated with real fence packets
crossing the real simulated channels: at every hop, each node re-emits a
merged fence to all six neighbors on both channel slices, one copy per
request VC, and a node advances to round ``r + 1`` only once it has
collected the full expected set of round-``r`` fences (the per-VC fence
counters of the Edge Router, collapsed to one counter per (neighbor,
slice, VC, round)).  The copies are counted per request VC but all ride
request VC 0: Section V-C injects them "on all possible request-class
VCs", so here they share one VC's buffers instead of draining each VC
behind the packets sent before the fence.

The *intra-node* phases — merging the fence packets of all 576 GCs into
the Edge Network, and multicasting the final fence back to the GCs with
its counted-write delivery — are charged as calibrated latencies derived
from the core-network geometry rather than simulated per-GC, which keeps
a 128-node barrier tractable while preserving the published timing shape
(51.5 ns intra-node, ~91 ns + ~52 ns/hop beyond).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..topology.torus import Coord, DIRECTIONS
from ..netsim.machine import NetworkMachine
from ..netsim.packet import CoreAddress, Packet, PacketKind, TrafficClass


class FencePattern(enum.Enum):
    """Predefined source/destination component-type pairs (Section V-A)."""

    GC_TO_GC = "gc_to_gc"
    GC_TO_ICB = "gc_to_icb"


class FenceDomainError(RuntimeError):
    """A fence's domain is unreachable under the machine's faults.

    Raised synchronously by :meth:`FenceEngine.start_fence` — a graph
    check over the live channel fabric, zero simulated slices — when a
    dead router (or a link-fault partition) makes the k-hop barrier
    semantics unsatisfiable.  Failing fast here is what keeps
    fence-synchronized workloads from waiting on a barrier that can
    never complete.
    """


@dataclass
class FenceTiming:
    """Calibrated intra-node fence phase latencies (ns).

    ``aggregation_ns`` covers GC software issue, the fence merge tree
    through the Core Network to the chip edge, and Edge Network entry.
    ``delivery_ns`` covers the reverse multicast plus the counted write
    and blocking-read release at the GCs.  ``remote_exit_ns`` is the
    additional edge-network traversal paid when the last fence round
    arrives from a channel rather than from the local Core Network.
    ``internal_ns`` is the per-hop edge-network multicast time between
    arrival CAs and all exit CAs (why a fence hop costs more than a
    message hop, Section V-F).
    """

    aggregation_ns: float = 30.0
    delivery_ns: float = 21.5
    remote_exit_ns: float = 59.5
    internal_ns: float = 20.7
    icb_delivery_discount_ns: float = 12.0  # ICBs sit next to the edge


@dataclass
class _NodeFenceState:
    hops: int
    pattern: FencePattern
    expected: int = 0  # round arrivals required (live incoming copies)
    rounds_done: int = 0
    emitted_round: int = 0
    arrivals: Dict[int, int] = field(default_factory=dict)
    complete_ns: Optional[float] = None


class FenceEngine:
    """Coordinates network fences over a :class:`NetworkMachine`."""

    MAX_CONCURRENT = 14  # hardware limit (Section V-D)

    def __init__(self, machine: NetworkMachine,
                 timing: Optional[FenceTiming] = None,
                 request_vcs: int = 4, slices: int = 2) -> None:
        self.machine = machine
        self.timing = timing or FenceTiming()
        self.request_vcs = request_vcs
        self.slices = slices
        self._states: Dict[Tuple[int, Coord], _NodeFenceState] = {}
        self._active_fences: set = set()
        self._next_fence_id = 0
        self._on_complete: Dict[int, Callable[[Coord, float], None]] = {}
        # Live fence distances per source, valid for one fault epoch.
        self._distances: Dict[Coord, Dict[Coord, int]] = {}
        self._distances_epoch = -1
        self._bind_handlers()

    def _bind_handlers(self) -> None:
        """Point every chip's fence sink at this engine.

        Re-bound on every fence start so several engines can share one
        machine sequentially (e.g. ablations with different VC coverage).
        """
        for coord, chip in self.machine.chips.items():
            chip.fence_handler = self._make_handler(coord)

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    @property
    def copies_per_direction(self) -> int:
        """Fence packets per neighbor per round (slices x request VCs)."""
        return self.slices * self.request_vcs

    def start_fence(self, hops: int,
                    pattern: FencePattern = FencePattern.GC_TO_GC,
                    on_node_complete: Optional[
                        Callable[[Coord, float], None]] = None) -> int:
        """All GCs issue ``fence(pattern, hops)`` at the current sim time.

        Returns the fence id.  Completion per node is reported through
        ``on_node_complete(coord, time_ns)``.
        """
        if len(self._active_fences) >= self.MAX_CONCURRENT:
            raise RuntimeError(
                f"at most {self.MAX_CONCURRENT} concurrent network fences")
        if hops < 0:
            raise ValueError("hops must be >= 0")
        self._check_fence_domains(hops)
        self._bind_handlers()
        fence_id = self._next_fence_id
        self._next_fence_id += 1
        self._active_fences.add(fence_id)
        observer = getattr(self.machine, "observer", None)
        if observer is not None:
            observer.on_fence_start(fence_id, self.machine.sim.now)
        if on_node_complete is not None:
            self._on_complete[fence_id] = on_node_complete
        sim = self.machine.sim
        for coord in self.machine.chips:
            self._states[(fence_id, coord)] = _NodeFenceState(
                hops, pattern, expected=self._expected_arrivals(coord))
        # Intra-node aggregation, then either local completion (0 hops)
        # or emission of the first inter-node round.
        for coord in self.machine.chips:
            sim.after(self.timing.aggregation_ns,
                      lambda c=coord: self._aggregated(fence_id, c))
        return fence_id

    def barrier_latency(self, hops: int,
                        pattern: FencePattern = FencePattern.GC_TO_GC) -> float:
        """Run one fence to completion; returns the barrier latency in ns
        (start to the last node's completion), the Figure 11 metric."""
        sim = self.machine.sim
        start = sim.now
        completions: List[float] = []
        self.start_fence(hops, pattern,
                         on_node_complete=lambda c, t: completions.append(t))
        sim.run()
        if len(completions) != len(self.machine.chips):
            raise RuntimeError(
                f"barrier incomplete: {len(completions)} of "
                f"{len(self.machine.chips)} nodes finished")
        return max(completions) - start

    def live_diameter(self) -> int:
        """The fewest fence hops that synchronize every node.

        The torus diameter on a healthy machine.  Under faults it is the
        longest live fence-capable distance between any two nodes, which
        dead links can stretch past the torus diameter — a fence with
        this many hops passes the domain check on any connected faulted
        fabric.  Raises :class:`FenceDomainError` when the live fabric
        is partitioned, so no hop count reaches every node.
        """
        torus = self.machine.torus
        state = self._fault_state()
        if state is None or not state.active:
            return torus.dims.diameter
        diameter = 0
        for source in torus.nodes():
            dist = self._fence_distances(source, state.epoch)
            if len(dist) < torus.dims.num_nodes:
                raise FenceDomainError(
                    f"fence domain partitioned: {source} cannot reach "
                    f"every node over the surviving links")
            diameter = max(diameter, max(dist.values()))
        return diameter

    # ------------------------------------------------------------------
    # Fault awareness: live fence links and the domain pre-check.
    # ------------------------------------------------------------------

    def _fault_state(self):
        return getattr(self.machine, "fault_state", None)

    def _fence_pair_live(self, owner: Coord, direction: Tuple[int, int],
                         slice_index: int) -> bool:
        """Whether one outgoing (direction, slice) can carry fences.

        Fence packets cross channels on link VC 0, so a dead VC 0 kills
        the pair even when the link itself survives; a dead VC elsewhere
        is an *unrelated* fault the fence completes around.
        """
        state = self._fault_state()
        if state is None or not state.active:
            return True
        return not (state.is_channel_dead(owner, direction, slice_index)
                    or state.is_vc_dead(owner, direction, slice_index, 0))

    def _expected_arrivals(self, coord: Coord) -> int:
        """Round arrivals this node must collect: live incoming copies.

        Healthy machines take the constant-expected fast path — the
        exact pre-fault arithmetic, preserving byte-identical results.
        """
        state = self._fault_state()
        if state is None or not state.active:
            return len(DIRECTIONS) * self.copies_per_direction
        torus = self.machine.torus
        live_pairs = 0
        for axis, sign in DIRECTIONS:
            owner = torus.neighbor(coord, axis, sign)
            for slice_index in range(self.slices):
                if self._fence_pair_live(owner, (axis, -sign), slice_index):
                    live_pairs += 1
        return live_pairs * self.request_vcs

    def _check_fence_domains(self, hops: int) -> None:
        """Fail fast when faults make the k-hop barrier unsatisfiable.

        Pure graph analysis over the live channel fabric — zero
        simulated slices, so the error path is bounded by construction.
        Two failure modes: a dead router cannot contribute its GCs to
        any inter-node barrier, and link faults can stretch a
        neighbor's live distance beyond the fence's round budget (the
        k rounds only propagate information k live hops).
        """
        state = self._fault_state()
        if hops == 0 or state is None or not state.active:
            return
        torus = self.machine.torus
        if state.dead_nodes:
            raise FenceDomainError(
                f"fence domain partitioned: dead router(s) "
                f"{sorted(state.dead_nodes)} cannot join a {hops}-hop "
                f"barrier")
        for source in torus.nodes():
            dist = self._fence_distances(source, state.epoch)
            for member in torus.nodes_within(source, hops):
                if dist.get(member, hops + 1) > hops:
                    raise FenceDomainError(
                        f"fence domain partitioned: {member} is within "
                        f"{hops} torus hops of {source} but "
                        f"{'unreachable' if member not in dist else f'{dist[member]} live hops away'} "
                        f"over the surviving links")

    def _fence_distances(self, source: Coord,
                         epoch: int) -> Dict[Coord, int]:
        """:meth:`_live_fence_distances` from ``source``, computed once
        per fault epoch: only a fault-state change can move them."""
        if epoch != self._distances_epoch:
            self._distances.clear()
            self._distances_epoch = epoch
        dist = self._distances.get(source)
        if dist is None:
            dist = self._distances[source] = self._live_fence_distances(
                source)
        return dist

    def _live_fence_distances(self, source: Coord) -> Dict[Coord, int]:
        """BFS hop distances from ``source`` over fence-capable links."""
        torus = self.machine.torus
        dist = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for coord in frontier:
                for axis, sign in DIRECTIONS:
                    if not any(self._fence_pair_live(coord, (axis, sign), s)
                               for s in range(self.slices)):
                        continue
                    neighbor = torus.neighbor(coord, axis, sign)
                    if neighbor not in dist:
                        dist[neighbor] = dist[coord] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return dist

    # ------------------------------------------------------------------
    # Per-node fence progression.
    # ------------------------------------------------------------------

    def _aggregated(self, fence_id: int, coord: Coord) -> None:
        state = self._states[(fence_id, coord)]
        if state.hops == 0:
            self._complete(fence_id, coord, remote=False)
            return
        self._emit_round(fence_id, coord, round_index=1)

    def _emit_round(self, fence_id: int, coord: Coord,
                    round_index: int) -> None:
        state = self._states[(fence_id, coord)]
        state.emitted_round = round_index
        chip = self.machine.chips[coord]
        for axis, sign in DIRECTIONS:
            for slice_index in range(self.slices):
                if not self._fence_pair_live(coord, (axis, sign),
                                             slice_index):
                    continue  # fence-dead channel: neighbor won't count it
                ca = chip.channel_adapter((axis, sign), slice_index)
                for __ in range(self.request_vcs):
                    # Every copy rides request VC 0 (see the module
                    # docstring).
                    packet = Packet(
                        kind=PacketKind.FENCE,
                        traffic_class=TrafficClass.REQUEST,
                        src_node=coord,
                        dst_node=self.machine.torus.neighbor(
                            coord, axis, sign),
                        src_core=CoreAddress(0, 0, 0),
                        dst_core=CoreAddress(0, 0, 0),
                        num_flits=1,
                        payload_words=(fence_id, round_index),
                        slice_index=slice_index,
                        edge_vc=0)
                    packet.injected_ns = self.machine.sim.now
                    ca.receive(packet, 0, "edge", None)

    def _make_handler(self, coord: Coord) -> Callable[[Packet], None]:
        def handler(packet: Packet) -> None:
            fence_id, round_index = packet.payload_words
            self._fence_arrival(fence_id, coord, round_index)
        return handler

    def _fence_arrival(self, fence_id: int, coord: Coord,
                       round_index: int) -> None:
        state = self._states.get((fence_id, coord))
        if state is None:
            raise RuntimeError(f"fence {fence_id} not active at {coord}")
        state.arrivals[round_index] = state.arrivals.get(round_index, 0) + 1
        if (round_index == state.rounds_done + 1
                and state.arrivals[round_index] == state.expected):
            self._round_complete(fence_id, coord)

    def _round_complete(self, fence_id: int, coord: Coord) -> None:
        state = self._states[(fence_id, coord)]
        state.rounds_done += 1
        sim = self.machine.sim
        if state.rounds_done >= state.hops:
            self._complete(fence_id, coord, remote=True)
            return
        next_round = state.rounds_done + 1
        sim.after(self.timing.internal_ns,
                  lambda: self._emit_round(fence_id, coord, next_round))
        # A node that received fast neighbors' fences may already hold a
        # complete set for the next round.
        if state.arrivals.get(next_round, 0) == state.expected:
            # Handled when our own emission finishes; arrival counting is
            # already complete, so schedule the check after emission.
            sim.after(self.timing.internal_ns,
                      lambda: self._round_complete(fence_id, coord))

    def _complete(self, fence_id: int, coord: Coord, remote: bool) -> None:
        state = self._states[(fence_id, coord)]
        timing = self.timing
        delay = timing.delivery_ns
        if remote:
            delay += timing.remote_exit_ns
        if state.pattern is FencePattern.GC_TO_ICB:
            delay = max(0.0, delay - timing.icb_delivery_discount_ns)
        sim = self.machine.sim

        def finish() -> None:
            state.complete_ns = sim.now
            self._active_fences.discard(fence_id)
            observer = getattr(self.machine, "observer", None)
            if observer is not None:
                observer.on_fence_node_complete(fence_id, coord, sim.now)
            callback = self._on_complete.get(fence_id)
            if callback is not None:
                callback(coord, sim.now)

        sim.after(delay, finish)
