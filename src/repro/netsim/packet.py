"""Network packets and flits — Section III-B of the paper.

Anton 3 uses small, fixed-size packets of one or two flits; each flit is
192 bits (a 64-bit header plus a 128-bit payload).  Packets belong to one
of two traffic classes — requests and responses — which ride on disjoint
virtual channels for protocol deadlock avoidance.  Request packets fix
their route at injection time through a routing policy
(:mod:`repro.routing`; the default reproduces the paper's randomized
minimal dimension orders); response packets always follow XYZ order and
treat the torus as a mesh.

The simulator forwards whole packets (virtual cut-through: a router begins
forwarding as soon as the header arrives) and charges serialization time
per flit on every physical link.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..topology.torus import Coord

FLIT_BITS = 192
HEADER_BITS = 64
PAYLOAD_BITS = 128


class TrafficClass(enum.Enum):
    """Protocol traffic classes (Section III-B2)."""

    REQUEST = "request"
    RESPONSE = "response"


class PacketKind(enum.Enum):
    """Application meaning of a packet."""

    COUNTED_WRITE = "counted_write"
    READ_REQUEST = "read_request"
    READ_RESPONSE = "read_response"
    POSITION = "position"
    FORCE = "force"
    FENCE = "fence"
    MARKER = "marker"


@dataclass(frozen=True)
class CoreAddress:
    """Location of an endpoint inside a chip.

    Attributes:
        tile_u: Core-tile column (0-23).
        tile_v: Core-tile row (0-11).
        which: Endpoint index within the tile (e.g. GC 0 or 1).
    """

    tile_u: int
    tile_v: int
    which: int = 0


_packet_ids = itertools.count()


#: The link VC map: VCs 0-3 are the four dateline-disciplined
#: escape/request VCs (``link_vc``), then one response VC and one
#: adaptive VC (repro.routing.escape).  Channel and edge-network links
#: carry all six, so a packet keeps its VC across the chip; the core
#: network keeps its own two-VC request/response split (Section III-B1).
RESPONSE_VC = 4  # the single response-class VC (Section III-B2)
ADAPTIVE_VC = 5  # the per-hop adaptive request VC (Duato's adaptive layer)
NUM_LINK_VCS = 6


@dataclass(slots=True)
class Packet:
    """One network packet in flight.

    Mutable bookkeeping fields (timestamps, hop counts) are filled in by
    the simulator as the packet traverses the machine.
    """

    kind: PacketKind
    traffic_class: TrafficClass
    src_node: Coord
    dst_node: Coord
    src_core: CoreAddress
    dst_core: CoreAddress
    num_flits: int = 1
    payload_words: Tuple[int, ...] = ()
    slice_index: int = 0
    quad_addr: int = 0
    accumulate: bool = False
    pid: int = field(default_factory=lambda: next(_packet_ids))

    # Routing state.  ``route`` is the RoutePlan a policy fixed at
    # injection (repro.routing); every request the chips route carries
    # one, responses never do.  ``route_axis`` and ``crossed_dateline``
    # are the per-ring dateline VC discipline, maintained hop by hop via
    # repro.routing.note_hop.  ``on_escape`` and ``misroutes`` are the
    # adaptive-escape layer state (repro.routing.escape): which VC layer
    # the current hop rides, and how much of the per-packet misroute
    # budget is spent.
    route: Optional["object"] = None
    route_axis: Optional[int] = None
    crossed_dateline: bool = False
    on_escape: bool = False
    misroutes: int = 0

    # Bookkeeping.
    injected_ns: Optional[float] = None
    delivered_ns: Optional[float] = None
    torus_hops_taken: int = 0
    # Set by the chip's planners once per torus hop: the Edge Network
    # path and the link VC (link_vc) of the packet's crossing of one
    # chip's edge network and the channel after it.
    edge_target: Optional[object] = None
    edge_vc: Optional[int] = None
    # Stable trace identity (repro.observe): (node_id, per-chip sequence)
    # assigned at injection only when the machine is observed.  ``pid``
    # cannot serve — it comes from a process-global counter, so its
    # values depend on how a sweep is split across worker processes.
    trace_id: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.num_flits not in (1, 2):
            raise ValueError("Anton 3 packets are one or two flits")

    @property
    def bits(self) -> int:
        return self.num_flits * FLIT_BITS

    @property
    def latency_ns(self) -> float:
        if self.injected_ns is None or self.delivered_ns is None:
            raise RuntimeError("packet has not completed its journey")
        return self.delivered_ns - self.injected_ns


def link_vc(packet: Packet) -> int:
    """The link VC of a packet's next torus hop, from its routing state.

    Responses ride :data:`RESPONSE_VC`.  Requests ride one of the four
    *escape* request VCs (Section III-B2), split by routing phase (VC
    class 0/1 — Valiant's two minimal phases ride disjoint classes) and
    by dateline status within the phase: ``2 * vc_class + dateline``,
    the standard torus deadlock-avoidance scheme the paper's VC budget
    implies.  The dateline state is the one
    :func:`repro.routing.note_hop` maintains.

    Requests whose :class:`~repro.routing.policy.RoutePlan` is marked
    adaptive ride :data:`ADAPTIVE_VC` instead on every hop where the
    per-hop chooser (:mod:`repro.routing.escape`) won an adaptive VC;
    when it fell back (``packet.on_escape``), the escape map above
    applies unchanged — that fallback always being available is the
    Duato deadlock-freedom argument.

    The routing state changes only when a torus hop is planned, so the
    chip's planners call this once per hop and store the result in
    ``packet.edge_vc`` for every router up to the next plan.
    """
    if packet.traffic_class is TrafficClass.RESPONSE:
        return RESPONSE_VC
    plan = packet.route
    if plan.adaptive and not packet.on_escape:
        return ADAPTIVE_VC
    return 2 * plan.current.vc_class + (1 if packet.crossed_dateline else 0)
