"""The Core Router and the on-chip Core Network — Section III-B1.

Each Core Tile contains a Core Router built from four sub-routers (one
URTR, two VRTRs, and a TRTR).  URTR moves packets along the U (column)
axis at two cycles per hop; VRTR moves along V (row) at five cycles per
hop; TRTR connects the tile's GCs and BC to the network.  Routing is
fixed U->V dimension order, and packets bound for remote ASICs travel
along U only, exiting through a Row Adapter at the chip edge.

The simulator composes the three sub-router roles into one
:class:`CoreRouter` object per tile and charges the published per-hop
cycle counts based on the traversal direction, so event cost stays at one
event per tile-hop while the architecture (and its latencies) match the
paper.  The charge per arrival port comes from a table shared by every
router built with the same :class:`~repro.netsim.params.LatencyParams`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..engine.simulator import Simulator
from .fabric import INPUT_QUEUE_FLITS, Link, PortSlots, Router
from .packet import CoreAddress, Packet, TrafficClass
from .params import LatencyParams

#: Core-network VCs: one per traffic class (Section III-B1: "just two VCs
#: suffice to avoid network deadlock between requests and responses").
CORE_VC_REQUEST = 0
CORE_VC_RESPONSE = 1
CORE_VCS = 2


def core_vc(packet: Packet) -> int:
    if packet.traffic_class is TrafficClass.RESPONSE:
        return CORE_VC_RESPONSE
    return CORE_VC_REQUEST


@lru_cache(maxsize=16)
def _pipeline_table(params: LatencyParams) -> Mapping[str, float]:
    """Pipeline charge (ns) per Core Router arrival port; read-only.

    A packet arriving along U crosses the URTR, along V a VRTR, from a GC
    the TRTR, and from the edge the Row Adapter crossing.  One table per
    ``params`` is shared by every router, so the 36,864 routers of a
    4x4x8 machine hold a reference each, not a table each.
    """
    u = params.cycles(params.core_u_cycles)
    v = params.cycles(params.core_v_cycles)
    return {"U+": u, "U-": u, "V+": v, "V-": v,
            "inject": params.cycles(params.trtr_cycles),
            "RA": params.cycles(params.ra_cycles)}


#: Mesh output port -> the (u, v) step to the neighbour it leads to.
_MESH_STEPS = {"U+": (1, 0), "U-": (-1, 0), "V+": (0, 1), "V-": (0, -1)}


class CoreRouter(Router):
    """One tile's router; composed of URTR, VRTR and TRTR roles.

    Output ports: ``U+``, ``U-``, ``V+``, ``V-`` toward neighbor tiles and
    ``RA`` toward the edge network (only on edge-adjacent columns).  Local
    sinks ``gc0``/``gc1`` deliver to the tile's Geometry Cores.  The four
    mesh links are built on first use; the name is formatted when read.

    The ``in_port`` on arrival is the direction of travel (e.g. a packet
    sent out ``U+`` arrives with ``in_port == "U+"``), which determines
    the sub-router traversed and hence the pipeline charge.
    """

    _PORTS = PortSlots({"U+": "_u_plus", "U-": "_u_minus",
                        "V+": "_v_plus", "V-": "_v_minus", "RA": "_ra"})
    __slots__ = ("u", "v", "_net", *_PORTS.values())

    def __init__(self, sim: Simulator, u: int, v: int, net: "CoreNetwork",
                 pipeline: Mapping[str, float],
                 sinks: Mapping[str, Callable[[Packet], None]]) -> None:
        super().__init__(sim, None, pipeline, sinks)
        self.u = u
        self.v = v
        self._net = net
        # The mesh slots are read before their links exist: an empty
        # slot reads as None, an unset one raises (and that costs).
        self._u_plus = self._u_minus = self._v_plus = self._v_minus = None

    @property
    def name(self) -> str:
        return f"core({self.u},{self.v})@{self._net.tag}"

    def _new_output(self, port: str) -> Optional[Link]:
        step = _MESH_STEPS.get(port)
        if step is None:
            return None
        return self._net.mesh_link((self.u + step[0], self.v + step[1]),
                                   port)

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        # A packet enters the core network on its :func:`core_vc` (at
        # injection, or at the Row Adapter from the edge) and keeps that
        # VC on every core hop: its traffic class never changes in flight.
        net = self._net
        if packet.dst_node == net.coord:
            return self._route_local(packet, vc)
        # Remote destination: U-only travel toward the exit edge.
        exit_u = net.exit_column(packet)
        if self.u == exit_u:
            return ("link", "RA", vc)
        return ("link", "U+" if exit_u > self.u else "U-", vc)

    def _route_local(self, packet: Packet,
                     vc: int) -> Tuple[str, str, Optional[int]]:
        dst = packet.dst_core
        if self.u != dst.tile_u:
            return ("link", "U+" if dst.tile_u > self.u else "U-", vc)
        if self.v != dst.tile_v:
            return ("link", "V+" if dst.tile_v > self.v else "V-", vc)
        return ("local", f"gc{dst.which}", None)


class CoreNetworkHost:
    """Interface the Core Network needs from its chip (read once, at
    build, and handed to its routers)."""

    coord: Tuple[int, int, int]

    def exit_column(self, packet: Packet) -> int:
        raise NotImplementedError


class CoreNetwork:
    """The 24x12 mesh of Core Routers on one chip.

    ``gc_sinks`` maps ``gc0``/``gc1`` to the delivery handlers; every
    router of the mesh shares the one map.  The mesh links are built on
    their first use, each with :data:`CORE_VCS` VCs of
    :data:`~repro.netsim.fabric.INPUT_QUEUE_FLITS` credits.
    """

    def __init__(self, sim: Simulator, chip: CoreNetworkHost,
                 params: LatencyParams,
                 gc_sinks: Mapping[str, Callable[[Packet], None]],
                 cols: int = 24, rows: int = 12,
                 tag: str = "") -> None:
        self._sim = sim
        self.cols = cols
        self.rows = rows
        self.coord = chip.coord
        self.exit_column = chip.exit_column
        self.tag = tag or str(chip.coord)
        # Every mesh link differs only in its target and in_port; one
        # flit per cycle on mesh channels.
        self._link = partial(Link, sim, None, 0.0, params.cycle_ns,
                             CORE_VCS, INPUT_QUEUE_FLITS)
        pipeline = _pipeline_table(params)
        self.routers: Dict[Tuple[int, int], CoreRouter] = {
            (u, v): CoreRouter(sim, u, v, self, pipeline, gc_sinks)
            for u in range(cols) for v in range(rows)}

    def mesh_link(self, at: Tuple[int, int], port: str) -> Optional[Link]:
        """A nameless link toward the router at ``at``, arriving on
        ``port``; ``None`` past the mesh edge."""
        neighbor = self.routers.get(at)
        if neighbor is None:
            return None
        return self._link(neighbor, port)

    def router(self, u: int, v: int) -> CoreRouter:
        return self.routers[(u, v)]

    def inject(self, packet: Packet, at: CoreAddress) -> None:
        """Inject from a GC through its tile's TRTR."""
        router = self.routers[(at.tile_u, at.tile_v)]
        router.receive(packet, core_vc(packet), "inject", None)

    def attach_ra(self, u: int, v: int, link: Link) -> None:
        """Wire the RA-facing output of an edge-adjacent router."""
        self.routers[(u, v)].add_output("RA", link)
