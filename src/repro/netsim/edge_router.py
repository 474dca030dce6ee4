"""The Edge Network: Edge Routers, Row Adapters, Channel Adapters.

Each side of the chip carries a 12-row x 3-column mesh of Edge Routers
(Section II-B).  The network implements inter-node torus routing with a
column-partitioned policy (Section III-B2, Figure 4):

* The **outermost column** is reserved for intra-dimensional traffic —
  packets that arrived from a channel and continue along the same torus
  dimension.  The opposite directions of a dimension attach to adjacent
  rows, so a through packet makes a single vertical hop.
* The **two inner columns** carry everything else (packets injected from
  the Core Network and packets turning between torus dimensions), chosen
  per packet in a randomized fashion for load balance.

Row Adapters (RA) join the Core Network to the inner column; Channel
Adapters (CA) join the outer column to the SERDES channel slices and host
the particle cache and INZ codecs (modeled for traffic accounting in
:mod:`repro.fullsim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..engine.simulator import Simulator
from ..topology.torus import DIRECTIONS, direction_name
from .core_router import core_vc
from .fabric import INPUT_QUEUE_FLITS, FabricError, Link, PortSlots, Router
from .packet import NUM_LINK_VCS, Packet
from .params import LatencyParams

#: Row where each torus direction's Channel Adapter attaches (both edges).
#: Opposite directions sit on adjacent rows (Figure 4).
DIRECTION_ROWS: Dict[Tuple[int, int], int] = {
    (0, +1): 0, (0, -1): 1,
    (1, +1): 4, (1, -1): 5,
    (2, +1): 8, (2, -1): 9,
}

OUTER_COL = 2
INNER_COLS = (0, 1)

#: Outer-column port toward the Channel Adapter of each torus direction.
CA_PORTS: Dict[Tuple[int, int], str] = {
    direction: f"CA:{direction_name(direction)}" for direction in DIRECTIONS}


def compact_direction_rows() -> Dict[Tuple[int, int], int]:
    """Direction-row map for reduced-size test chips (rows >= 6)."""
    return {direction: i for i, direction in enumerate(DIRECTIONS)}


@lru_cache(maxsize=16)
def _pipeline_tables(params: LatencyParams) -> Dict[str, Mapping[str, float]]:
    """Pipeline charge (ns) per arrival port, one table per Edge Network
    router class; read-only and shared by every router built with
    ``params``.

    An Edge Router charges one hop whichever neighbour (or adapter) the
    packet came from; a Row Adapter charges its crossing both ways; a
    Channel Adapter charges encode toward the channel and decode from it.
    """
    ertr = params.cycles(params.edge_hop_cycles)
    ra = params.cycles(params.ra_cycles)
    return {
        "EdgeRouter": dict.fromkeys(("E", "W", "N", "S", "RA", "CA"), ertr),
        "RowAdapter": {"core": ra, "edge": ra},
        "ChannelAdapter": {"edge": params.cycles(params.ca_tx_cycles),
                           "channel": params.cycles(params.ca_rx_cycles)},
    }


@dataclass
class EdgeTarget:
    """Routing plan for one packet's traversal of an Edge Network.

    The packet first reaches ``via_col`` (horizontal moves), then travels
    vertically to ``row``, then horizontally to ``exit_col``, and finally
    leaves through ``exit_port``.
    """

    via_col: int
    row: int
    exit_col: int
    exit_port: str


#: Mesh output port -> the (col, row) step to the neighbour it leads to.
_MESH_STEPS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


class EdgeRouter(Router):
    """One ERTR at (col, row) of an Edge Network.

    Output ports: ``E``/``W``/``N``/``S`` toward mesh neighbours (built
    on first use), ``RA`` on the inner column and one ``CA:<dir>`` on
    the outer column.  The name is formatted when read.
    """

    _PORTS = PortSlots({"E": "_east", "W": "_west", "N": "_north",
                        "S": "_south", "RA": "_ra",
                        **{port: f"_ca{i}"
                           for i, port in enumerate(CA_PORTS.values())}})
    __slots__ = ("col", "row", "_net", *_PORTS.values())

    def __init__(self, sim: Simulator, col: int, row: int,
                 net: "EdgeNetwork", pipeline: Mapping[str, float]) -> None:
        super().__init__(sim, None, pipeline)
        self.col = col
        self.row = row
        self._net = net
        # The mesh slots are read before their links exist: an empty
        # slot reads as None, an unset one raises (and that costs).
        self._east = self._west = self._north = self._south = None

    @property
    def name(self) -> str:
        net = self._net
        return f"ertr{net.side}({self.col},{self.row})@{net.node_tag}"

    def _new_output(self, port: str) -> Optional[Link]:
        step = _MESH_STEPS.get(port)
        if step is None:
            return None
        return self._net.mesh_link((self.col + step[0], self.row + step[1]),
                                   port)

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        target: Optional[EdgeTarget] = packet.edge_target
        if target is None:
            raise FabricError(f"{self.name}: packet {packet.pid} has no "
                              "edge target")
        out_vc = packet.edge_vc
        # Phase 1: reach the via column before moving vertically.
        if self.row != target.row:
            if self.col != target.via_col:
                return ("link",
                        "E" if target.via_col > self.col else "W", out_vc)
            return ("link", "N" if target.row > self.row else "S", out_vc)
        # Phase 2: at the target row; go to the exit column, then out.
        if self.col != target.exit_col:
            return ("link",
                    "E" if target.exit_col > self.col else "W", out_vc)
        return ("link", target.exit_port, out_vc)


class RowAdapter(Router):
    """Connects one Core Network row to the Edge Network's inner column.

    On the core-to-edge crossing the RA asks the chip to plan the packet's
    path through the Edge Network and its link VC (exit channel choice
    happens here).
    """

    _PORTS = PortSlots({"edge": "_edge", "core": "_core"})
    __slots__ = ("row", "_plan_egress", *_PORTS.values())

    def __init__(self, sim: Simulator, name: str, row: int,
                 pipeline: Mapping[str, float],
                 plan_egress: Callable[[Packet], None]) -> None:
        super().__init__(sim, name, pipeline)
        self.row = row
        self._plan_egress = plan_egress

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        if in_port == "core":
            self._plan_egress(packet)
            return ("link", "edge", packet.edge_vc)
        if in_port == "edge":
            return ("link", "core", core_vc(packet))
        raise FabricError(f"{self.name}: unknown in_port {in_port}")


class ChannelAdapter(Router):
    """Joins the outer Edge Network column to one channel slice.

    The CA hosts the particle cache and INZ codecs (bit-level effects are
    accounted in :mod:`repro.fullsim`); in the flit simulator it charges
    the encode/decode pipeline cycles and hands arriving packets to the
    chip for ingress planning (continue, turn, or deliver).

    ``channel_arrivals`` maps each link VC to the packets taken off the
    channel on it, counted as the adapter routes them; it is ``None``
    until the first arrives.
    """

    _PORTS = PortSlots({"edge": "_edge", "channel": "_channel"})
    __slots__ = ("direction", "slice_index", "_plan_ingress",
                 "channel_arrivals", *_PORTS.values())

    def __init__(self, sim: Simulator, name: str,
                 direction: Tuple[int, int], slice_index: int,
                 pipeline: Mapping[str, float],
                 plan_ingress: Callable[[Packet, Tuple[int, int]], str]) -> None:
        super().__init__(sim, name, pipeline)
        self.direction = direction
        self.slice_index = slice_index
        self._plan_ingress = plan_ingress
        self.channel_arrivals: Optional[Dict[int, int]] = None

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        if in_port == "edge":
            return ("link", "channel", packet.edge_vc)
        if in_port == "channel":
            arrivals = self.channel_arrivals
            if arrivals is None:
                arrivals = self.channel_arrivals = {}
            arrivals[vc] = arrivals.get(vc, 0) + 1
            disposition = self._plan_ingress(packet, self.direction)
            if disposition == "fence":
                return ("local", "fence", None)
            return ("link", "edge", packet.edge_vc)
        raise FabricError(f"{self.name}: unknown in_port {in_port}")


class EdgeNetwork:
    """One side's 3x12 mesh of Edge Routers with its RAs and CAs.

    The mesh links are built on their first use, like the Core
    Network's; the RA and CA links are wired here.  Every link carries
    the full link VC map (:data:`~repro.netsim.packet.NUM_LINK_VCS`), so
    a packet keeps its VC across the edge mesh.
    """

    def __init__(self, sim: Simulator, side: str, node_tag: str,
                 params: LatencyParams, rows: int = 12) -> None:
        self.side = side
        self.node_tag = node_tag
        self.rows = rows
        direction_rows = (DIRECTION_ROWS if rows >= 10
                          else compact_direction_rows())
        if max(direction_rows.values()) >= rows:
            raise FabricError("direction rows do not fit this Edge Network")
        self.direction_rows = dict(direction_rows)
        # Every link differs only in its target and in_port; one flit
        # per cycle on mesh channels.
        self._link = partial(Link, sim, None, 0.0, params.cycle_ns,
                             NUM_LINK_VCS, INPUT_QUEUE_FLITS)
        pipeline = _pipeline_tables(params)["EdgeRouter"]
        self.routers: Dict[Tuple[int, int], EdgeRouter] = {
            (col, row): EdgeRouter(sim, col, row, self, pipeline)
            for col in range(3) for row in range(rows)}

    def mesh_link(self, at: Tuple[int, int], port: str) -> Optional[Link]:
        """A nameless link toward the router at ``at``, arriving on
        ``port``; ``None`` past the mesh edge."""
        neighbor = self.routers.get(at)
        if neighbor is None:
            return None
        return self._link(neighbor, port)

    def _connect(self, source: Router, port: str, target: Router,
                 in_port: str) -> None:
        """Wire ``source``'s output ``port`` to ``target``'s ``in_port``;
        the link is named ``"{source.name}->{port}"``."""
        source.add_output(port, self._link(target, in_port))

    def router(self, col: int, row: int) -> EdgeRouter:
        return self.routers[(col, row)]

    def attach_ra(self, row: int, ra: RowAdapter) -> None:
        """Wire a Row Adapter to the inner column at ``row`` (both ways)."""
        inner = self.routers[(0, row)]
        self._connect(ra, "edge", inner, "RA")
        self._connect(inner, "RA", ra, "edge")

    def attach_ca(self, ca: ChannelAdapter) -> None:
        """Wire a Channel Adapter to the outer column at its row."""
        row = self.direction_rows[ca.direction]
        outer = self.routers[(OUTER_COL, row)]
        self._connect(outer, CA_PORTS[ca.direction], ca, "edge")
        self._connect(ca, "edge", outer, "CA")
