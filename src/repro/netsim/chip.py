"""Whole-ASIC network assembly: Core Network, Edge Networks, adapters, GCs.

One :class:`ChipNetwork` instance models the network of a single Anton 3
node: a Core Network mesh of Core Routers, two Edge Networks (left and
right), Row Adapters joining them, and Channel Adapters attaching the
twelve channel-slice endpoints (six torus directions times two slices —
slice 0 lives on the left edge, slice 1 on the right, so each neighbor is
served by 2 x 8 SERDES lanes, matching the chip's 96 lanes).

The chip also hosts the Geometry Core endpoints: each GC owns a quad-SRAM
with counted-write counters and a blocking-read port (Section III-A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..engine.simulator import Simulator
from ..routing.policy import next_request_direction, note_hop
from ..sync.blocking_read import BlockingReadPort
from ..sync.sram import QuadSram
from ..topology.torus import Coord, Torus3D
from .core_router import CORE_VCS, CoreNetwork, CoreNetworkHost
from .edge_router import (
    CA_PORTS,
    ChannelAdapter,
    EdgeNetwork,
    EdgeTarget,
    OUTER_COL,
    RowAdapter,
    _pipeline_tables,
)
from .fabric import INPUT_QUEUE_FLITS, FabricError, Link
from .packet import (
    ADAPTIVE_VC,
    CoreAddress,
    Packet,
    PacketKind,
    TrafficClass,
    link_vc,
)
from .params import DEFAULT_PARAMS, LatencyParams

SIDES = ("L", "R")  # slice 0 -> left edge, slice 1 -> right edge


@dataclass
class GcEndpoint:
    """One Geometry Core's network-visible state."""

    address: CoreAddress
    sram: QuadSram
    read_port: BlockingReadPort


class ChipNetwork(CoreNetworkHost):
    """The network of one node (one ASIC)."""

    def __init__(self, sim: Simulator, coord: Coord, torus: Torus3D,
                 params: LatencyParams = DEFAULT_PARAMS,
                 cols: int = 24, rows: int = 12,
                 rng: Optional[random.Random] = None) -> None:
        self._sim = sim
        self.coord = coord
        self.torus = torus
        self.params = params
        self.cols = cols
        self.rows = rows
        self._rng = rng if rng is not None else random.Random(0)
        tag = f"n{torus.node_id(coord)}"

        # Per-GC sinks on every core router, all in one shared map.
        deliver_to_gc = self._deliver_to_gc
        self.core = CoreNetwork(
            sim, self, params, {"gc0": deliver_to_gc, "gc1": deliver_to_gc},
            cols=cols, rows=rows, tag=tag)
        self.edges: Dict[str, EdgeNetwork] = {
            side: EdgeNetwork(sim, side, tag, params, rows=rows)
            for side in SIDES}
        self._gcs: Dict[Tuple[int, int, int], GcEndpoint] = {}
        self.fence_handler: Optional[Callable[[Packet], None]] = None
        # Per-traffic-class accounting and the delivery hook used by the
        # open-loop traffic harness (repro.traffic): counts are bumped at
        # injection (send) and final SRAM commit; the hook fires on every
        # commit.
        self.injected_counts: Dict[TrafficClass, int] = {
            tc: 0 for tc in TrafficClass}
        self.delivered_counts: Dict[TrafficClass, int] = {
            tc: 0 for tc in TrafficClass}
        self.delivery_hook: Optional[Callable[[Packet], None]] = None
        # Installed by the machine only when faults are scheduled; while
        # None (the healthy case) routing takes the exact original paths.
        self.fault_adviser = None
        # Installed by the machine only when the run is observed
        # (repro.observe); while None the injection/delivery hot paths
        # pay a single attribute check and nothing else.
        self.observer = None
        self._route_events = None

        # Row Adapters: one per (side, row), joining core column 0 or
        # cols-1 to the inner edge column.
        pipelines = _pipeline_tables(params)
        ser = params.cycle_ns
        self.row_adapters: Dict[Tuple[str, int], RowAdapter] = {}
        for side in SIDES:
            core_u = 0 if side == "L" else cols - 1
            for row in range(rows):
                ra = RowAdapter(sim, f"ra{side}{row}@{tag}", row,
                                pipelines["RowAdapter"],
                                plan_egress=self._plan_egress)
                self.edges[side].attach_ra(row, ra)
                # Named "{ra.name}->core" by add_output.
                ra.add_output("core", Link(
                    sim, None, 0.0, ser, CORE_VCS, INPUT_QUEUE_FLITS,
                    self.core.router(core_u, row), "RA"))
                core_to_ra = Link(
                    sim, f"core({core_u},{row})->{ra.name}", 0.0, ser,
                    CORE_VCS, INPUT_QUEUE_FLITS, ra, "core")
                self.core.attach_ra(core_u, row, core_to_ra)
                self.row_adapters[(side, row)] = ra

        # Channel Adapters: direction x slice; outgoing channel links are
        # wired later by the machine (attach_channel).
        self.channel_adapters: Dict[Tuple[Tuple[int, int], int],
                                    ChannelAdapter] = {}
        for slice_index, side in enumerate(SIDES):
            edge = self.edges[side]
            for direction in edge.direction_rows:
                ca = ChannelAdapter(
                    sim, f"ca{side}{direction}@{tag}", direction,
                    slice_index, pipelines["ChannelAdapter"],
                    plan_ingress=self._plan_ingress)
                edge.attach_ca(ca)
                ca.add_sink("fence", self._deliver_fence)
                self.channel_adapters[(direction, slice_index)] = ca

    # ------------------------------------------------------------------
    # Geometry cores.
    # ------------------------------------------------------------------

    def gc(self, address: CoreAddress) -> GcEndpoint:
        """The (lazily created) endpoint state for one GC."""
        key = (address.tile_u, address.tile_v, address.which)
        if not (0 <= address.tile_u < self.cols
                and 0 <= address.tile_v < self.rows
                and address.which in (0, 1)):
            raise FabricError(f"no GC at {address} on a "
                              f"{self.cols}x{self.rows} chip")
        if key not in self._gcs:
            sram = QuadSram()
            self._gcs[key] = GcEndpoint(
                address=address, sram=sram,
                read_port=BlockingReadPort(
                    self._sim, sram,
                    read_latency_ns=self.params.cycles(
                        self.params.unstall_cycles)))
        return self._gcs[key]

    def send(self, packet: Packet) -> None:
        """A GC issues a packet: software overhead, then TRTR injection."""
        packet.injected_ns = self._sim.now
        self.injected_counts[packet.traffic_class] += 1
        delay = self.params.send_overhead_ns
        if self.observer is not None:
            self.observer.on_inject(self, packet, delay)
        self._sim.after(delay, lambda: self.core.inject(packet,
                                                        packet.src_core))

    def _deliver_to_gc(self, packet: Packet) -> None:
        """Final TRTR ejection plus SRAM commit for an arriving packet."""
        delay = self.params.delivery_ns

        def commit() -> None:
            endpoint = self.gc(packet.dst_core)
            packet.delivered_ns = self._sim.now
            self.delivered_counts[packet.traffic_class] += 1
            if packet.kind in (PacketKind.COUNTED_WRITE, PacketKind.POSITION,
                               PacketKind.FORCE):
                words = list(packet.payload_words) or [0, 0, 0, 0]
                endpoint.sram.counted_write(packet.quad_addr, words[:4],
                                            accumulate=packet.accumulate)
            elif packet.kind is PacketKind.READ_REQUEST:
                self._serve_remote_read(packet, endpoint)
            elif packet.kind is PacketKind.READ_RESPONSE:
                # Read data lands as a counted write to the requester's
                # reply quad, releasing any blocking read on it.
                words = list(packet.payload_words) or [0, 0, 0, 0]
                endpoint.sram.counted_write(packet.quad_addr, words[:4])
            if self.delivery_hook is not None:
                self.delivery_hook(packet)
            if self.observer is not None:
                self.observer.on_deliver(self, packet, delay)

        self._sim.after(delay, commit)

    def _serve_remote_read(self, request: Packet,
                           endpoint: GcEndpoint) -> None:
        """Memory serves a remote read: returns the addressed quad as a
        response-class packet (XYZ mesh-restricted route, response VC)."""
        words = tuple(endpoint.sram.read(request.quad_addr))
        reply_quad = request.payload_words[0] if request.payload_words else 0
        response = Packet(
            kind=PacketKind.READ_RESPONSE,
            traffic_class=TrafficClass.RESPONSE,
            src_node=self.coord,
            dst_node=request.src_node,
            src_core=request.dst_core,
            dst_core=request.src_core,
            num_flits=2,                    # header + 16-byte data payload
            payload_words=words,
            slice_index=request.slice_index,
            quad_addr=reply_quad)
        self.send(response)

    def _deliver_fence(self, packet: Packet) -> None:
        if self.fence_handler is None:
            raise FabricError(f"{self.coord}: fence arrived with no handler")
        self.fence_handler(packet)

    # ------------------------------------------------------------------
    # CoreNetworkHost interface.
    # ------------------------------------------------------------------

    def exit_column(self, packet: Packet) -> int:
        """Remote packets exit via the edge matching their channel slice."""
        return 0 if packet.slice_index == 0 else self.cols - 1

    # ------------------------------------------------------------------
    # Torus routing decisions.
    # ------------------------------------------------------------------

    def next_direction(self, packet: Packet) -> Optional[Tuple[int, int]]:
        """The packet's next torus direction from this node.

        Responses are pinned here, not in any policy: mesh-restricted
        XYZ (Section III-B2), so no wraparound moves and a single
        response VC stays deadlock-free.  Requests resolve their
        injection-time :class:`~repro.routing.policy.RoutePlan`;
        adaptive plans re-select per hop against this chip's outgoing
        adaptive-VC credit/occupancy (:meth:`adaptive_vc_state`) with
        the chip RNG breaking score ties.
        """
        adviser = self.fault_adviser
        if packet.traffic_class is TrafficClass.RESPONSE:
            if adviser is not None:
                # Degraded mode: responses follow the live-shortest-path
                # table (they may leave the mesh restriction — see the
                # fault-model caveats in docs/architecture.md).
                return adviser.route_direction(packet, self.coord,
                                               packet.dst_node, self._rng)
            for axis in (0, 1, 2):
                delta = packet.dst_node[axis] - self.coord[axis]
                if delta:
                    return (axis, 1 if delta > 0 else -1)
            return None
        if packet.route.adaptive:
            return next_request_direction(packet, self.coord, self.torus,
                                          probe=self._adaptive_probe(packet),
                                          rng=self._rng, faults=adviser,
                                          events=self._route_events)
        if adviser is not None:
            return next_request_direction(packet, self.coord, self.torus,
                                          rng=self._rng, faults=adviser)
        return next_request_direction(packet, self.coord, self.torus)

    def adaptive_vc_state(self, direction: Tuple[int, int],
                          slice_index: int) -> Tuple[int, int]:
        """``(credits, queued_flits)`` of one outgoing channel's adaptive VC.

        The downstream-credit/occupancy observation the per-hop adaptive
        chooser (:mod:`repro.routing.escape`) scores candidate
        directions with; an unwired channel reads as zero credit, so it
        can never win.
        """
        ca = self.channel_adapters[(direction, slice_index)]
        link = ca.output_or_none("channel")
        if link is None:
            return (0, 0)
        return (link.vc_credits(ADAPTIVE_VC),
                link.queued_flits_on(ADAPTIVE_VC))

    def _adaptive_probe(self, packet: Packet):
        """The per-packet probe closure: reads the packet's own slice."""

        def probe(coord: Coord, direction: Tuple[int, int]) -> Tuple[int, int]:
            return self.adaptive_vc_state(direction, packet.slice_index)

        return probe

    def _note_torus_hop(self, packet: Packet,
                        direction: Tuple[int, int]) -> None:
        """Maintain the request dateline/VC state for one planned hop."""
        if packet.traffic_class is TrafficClass.REQUEST:
            note_hop(packet, self.coord, direction, self.torus)

    def _edge_for_slice(self, slice_index: int) -> EdgeNetwork:
        return self.edges[SIDES[slice_index % 2]]

    def _plan_egress(self, packet: Packet) -> None:
        """Called by the RA when a packet crosses into the Edge Network.

        Plans the packet's next torus hop: its edge target and the link
        VC every router rides it on until the next plan.
        """
        direction = self.next_direction(packet)
        if direction is None:
            raise FabricError(
                f"{self.coord}: packet {packet.pid} entered the edge "
                "network with no remaining torus hops")
        self._note_torus_hop(packet, direction)
        packet.edge_vc = link_vc(packet)
        edge = self._edge_for_slice(packet.slice_index)
        row = edge.direction_rows[direction]
        via = self._rng.choice((0, 1))  # inner columns, randomized
        packet.edge_target = EdgeTarget(via_col=via, row=row,
                                        exit_col=OUTER_COL,
                                        exit_port=CA_PORTS[direction])

    def _plan_ingress(self, packet: Packet,
                      arrival_direction: Tuple[int, int]) -> str:
        """Called by a CA when a packet arrives from a channel.

        Returns "fence" for fence packets (delivered to the fence engine)
        or "edge" after installing the packet's next edge target and
        link VC.  At the final node the VC still follows the routing
        state: a Valiant packet whose intermediate is its destination
        has just entered its class-1 phase there.
        """
        packet.torus_hops_taken += 1
        if packet.kind is PacketKind.FENCE:
            return "fence"
        edge = self._edge_for_slice(packet.slice_index)
        direction = self.next_direction(packet)
        if direction is None:
            # Final node: head for the RA at the destination tile's row.
            packet.edge_vc = link_vc(packet)
            via = self._rng.choice((0, 1))
            packet.edge_target = EdgeTarget(
                via_col=via, row=packet.dst_core.tile_v, exit_col=0,
                exit_port="RA")
            return "edge"
        self._note_torus_hop(packet, direction)
        packet.edge_vc = link_vc(packet)
        axis_in, sign_in = arrival_direction
        continuing = (direction[0] == axis_in
                      and direction[1] == -sign_in)
        if continuing:
            # Intra-dimensional: outer column only (Figure 4, blue route).
            via = OUTER_COL
        else:
            via = self._rng.choice((0, 1))
        packet.edge_target = EdgeTarget(
            via_col=via, row=edge.direction_rows[direction],
            exit_col=OUTER_COL, exit_port=CA_PORTS[direction])
        return "edge"

    # ------------------------------------------------------------------
    # Wiring helpers.
    # ------------------------------------------------------------------

    def attach_channel(self, direction: Tuple[int, int], slice_index: int,
                       link: Link) -> None:
        """Wire the outgoing channel link of one CA (called by machine)."""
        ca = self.channel_adapters[(direction, slice_index)]
        ca.add_output("channel", link)

    def channel_adapter(self, direction: Tuple[int, int],
                        slice_index: int) -> ChannelAdapter:
        return self.channel_adapters[(direction, slice_index)]
