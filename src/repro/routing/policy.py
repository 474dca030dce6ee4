"""The routing-policy interface and the per-hop route walker.

Section III-B2 of the paper describes Anton 3's inter-node routing as
randomized minimal dimension-order: each request packet picks one of the
six dimension orders at injection, independent of network load, and
response packets are pinned to XYZ.  This module generalizes that single
hardwired choice into a pluggable policy:

* a :class:`RoutingPolicy` decides, **at injection**, the packet's
  :class:`RoutePlan` — one or more minimal dimension-order *phases*,
  each with its own target node, dimension order, and VC class;
* :func:`next_request_direction` resolves the plan **per hop**: at every
  node the packet follows the first axis of the current phase's order
  that still has a nonzero minimal offset toward the phase target,
  advancing to the next phase when a target is reached;
* :func:`note_hop` maintains the dateline discipline: a request packet
  that crosses a wraparound link switches to its VC class's dateline VC
  for the rest of that ring, and resets when it turns to a new axis.

Deadlock safety: every phase is a minimal dimension-order route, and
within a phase the per-ring dateline VC split breaks the cyclic channel
dependency a torus ring would otherwise create (the standard two-VC
dateline argument).  Multi-phase plans (Valiant) put each phase on a
disjoint VC class, so inter-phase dependencies only ever point from
class 0 channels to class 1 channels — the phase graph is acyclic.
Responses never enter this module: they stay mesh-restricted XYZ on the
dedicated response VC (:mod:`repro.netsim.chip` keeps that invariant).

Invariants tests (and the cache-versioned experiments) rely on:

* ``link VC == 2 * vc_class + dateline`` — the escape/request VC map
  (:func:`repro.netsim.packet.link_vc`); plans marked ``adaptive``
  additionally ride the dedicated adaptive VC
  (:data:`repro.netsim.packet.ADAPTIVE_VC`) on hops where they won it,
  and fall back to exactly this escape map otherwise.
* Every request packet carries a :class:`RoutePlan`; response packets
  never do: they are forced XYZ, mesh-restricted, on the single
  response VC.
* A policy's ``make_plan`` is a deterministic function of ``(src, dst,
  source, rng draws)``: no plan reads network state, and the per-hop
  walker draws only from the caller-provided ``rng``/``probe`` — so
  runner sweeps stay byte-identical across process fan-out.
* Load-dependent choice happens only per hop, in
  :mod:`repro.routing.escape`; plans with ``adaptive=False`` never
  consult the probe and never misroute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..topology.torus import Coord, Torus3D

__all__ = [
    "RouteHop",
    "RoutePhase",
    "RoutePlan",
    "RoutingPolicy",
    "next_request_direction",
    "note_hop",
    "source_vc_class",
    "trace_route",
]

def source_vc_class(source) -> int:
    """Deterministic request VC class (0/1) for a traffic source.

    Single-phase policies spread their packets across both VC classes so
    the full four-VC request budget carries load — but keyed by the
    source GC (any object with ``tile_u``/``tile_v``/``which``), never
    per packet: packets from one endpoint stay on one VC, preserving the
    same-path point-to-point ordering counted-write software and the
    fence protocol lean on.  Class 1 is safe for a whole minimal route
    because each class is independently deadlock-free and cross-class
    dependencies only ever point 0 -> 1 (Valiant's phase transition).
    ``None`` (no source context) pins class 0.
    """
    if source is None:
        return 0
    return (source.tile_u + source.tile_v + source.which) % 2


@dataclass(frozen=True)
class RoutePhase:
    """One minimal dimension-order leg of a route.

    Attributes:
        target: The node this phase routes to (normalized coordinates).
        dim_order: Permutation of ``(0, 1, 2)`` resolved most-significant
            first at every hop.
        vc_class: Request VC class (0 or 1) the phase's hops ride on;
            multi-phase plans use disjoint classes for deadlock freedom.
    """

    target: Coord
    dim_order: Tuple[int, int, int]
    vc_class: int = 0

    def __post_init__(self) -> None:
        if sorted(self.dim_order) != [0, 1, 2]:
            raise ValueError(
                f"dim_order must be a permutation of (0,1,2): {self.dim_order}")
        if self.vc_class not in (0, 1):
            raise ValueError(f"vc_class must be 0 or 1, got {self.vc_class}")


@dataclass
class RoutePlan:
    """A packet's full routing decision, fixed at injection.

    ``phase_index`` is the only mutable field: it advances as the packet
    reaches intermediate phase targets.  The final phase's target is the
    packet's destination.

    ``adaptive`` marks the plan for per-hop re-selection
    (:mod:`repro.routing.escape`): the phase's ``dim_order``/``vc_class``
    then describe the *escape* route — the deterministic dimension-order
    leg the packet falls back to whenever it cannot win an adaptive VC —
    and ``max_misroutes`` caps the non-minimal adaptive hops the packet
    may take over its lifetime (``None`` disables the cap, which
    sacrifices livelock freedom and exists only so tests can prove the
    cap matters).
    """

    policy: str
    phases: Tuple[RoutePhase, ...]
    phase_index: int = 0
    adaptive: bool = False
    max_misroutes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a route plan needs at least one phase")

    @property
    def current(self) -> RoutePhase:
        return self.phases[self.phase_index]

    @property
    def destination(self) -> Coord:
        return self.phases[-1].target


class RoutingPolicy:
    """Base class: decides each request packet's route at injection."""

    #: Registry name (set per subclass).
    name: str = "policy"

    def __init__(self, torus: Torus3D) -> None:
        self.torus = torus

    def make_plan(self, src: Coord, dst: Coord, rng: random.Random,
                  source=None) -> RoutePlan:
        """The plan for one packet from ``src`` to ``dst``.

        ``rng`` is the caller's deterministic stream (policies must draw
        from it, never from module state); ``source`` is the injecting
        endpoint (for :func:`source_vc_class`).
        """
        raise NotImplementedError

    def reroute_choice(self, options: List[Tuple[int, int]],
                       rng: Optional[random.Random]) -> Tuple[int, int]:
        """Pick one live distance-decreasing direction under faults.

        Called by :class:`~repro.faults.reroute.FaultAdviser` with the
        (nonempty, DIRECTIONS-ordered) set of directions that strictly
        decrease live-graph distance; never with healthy fabrics.  The
        base picks the first — the deterministic flavor of fixed
        dimension-order policies; randomized/adaptive policies set it to
        :func:`spread_reroute_choice`.
        """
        return options[0]


def spread_reroute_choice(policy: RoutingPolicy,
                          options: List[Tuple[int, int]],
                          rng: Optional[random.Random]) -> Tuple[int, int]:
    """``reroute_choice`` that spreads degraded-mode hops uniformly over
    the live options via ``rng`` (the first without one)."""
    if rng is None or len(options) == 1:
        return options[0]
    return options[rng.randrange(len(options))]


# ---------------------------------------------------------------------------
# Per-hop resolution (called by the chip at every torus routing decision).
# ---------------------------------------------------------------------------


def next_request_direction(packet, coord: Coord, torus: Torus3D,
                           probe=None, rng=None, faults=None,
                           events=None) -> Optional[Tuple[int, int]]:
    """The request packet's next torus direction from ``coord``.

    Resolves the current phase of ``packet.route``, advancing phases
    whose targets are reached.  Returns ``None`` at the final
    destination.

    Plans marked ``adaptive`` are re-evaluated here at every hop:
    ``probe`` is the router's per-direction adaptive-VC state oracle
    (:data:`repro.routing.escape.AdaptiveVcProbe`) and ``rng`` breaks
    score ties; both are ignored by non-adaptive plans, so the RNG
    streams of the oblivious policies are untouched by their presence.

    ``faults`` is the machine's :class:`~repro.faults.reroute.
    FaultAdviser` when faults are active (chips pass it only then).
    Non-adaptive phases then follow its live-shortest-path table for
    *every* hop — following the table only at broken hops would let two
    nodes straddling a dead ring link ping-pong forever — while
    adaptive plans keep their per-hop chooser and use the table just
    for the escape leg (inside ``adaptive_escape_direction``).

    ``events`` is the optional observability callback
    (:mod:`repro.observe`): adaptive plans report each per-hop layer
    decision through it (``"adaptive"``/``"misroute"``/``"escape"``);
    it is ignored — and the hook never fires — for oblivious plans.
    """
    plan: RoutePlan = packet.route
    while (plan.phase_index < len(plan.phases) - 1
           and coord == plan.current.target):
        plan.phase_index += 1
        # A new phase is a fresh dimension-order route on a fresh VC
        # class; dateline state restarts with it.
        packet.route_axis = None
        packet.crossed_dateline = False
    if plan.adaptive:
        from .escape import adaptive_escape_direction

        return adaptive_escape_direction(packet, coord, torus,
                                         probe=probe, rng=rng,
                                         faults=faults, events=events)
    phase = plan.current
    if faults is not None:
        return faults.route_direction(packet, coord, phase.target, rng)
    return _minimal_direction(coord, phase.target, phase.dim_order, torus)


def _minimal_direction(coord: Coord, target: Coord,
                       dim_order: Tuple[int, int, int],
                       torus: Torus3D) -> Optional[Tuple[int, int]]:
    offsets = torus.offsets(coord, target)
    for axis in dim_order:
        if offsets[axis]:
            return (axis, 1 if offsets[axis] > 0 else -1)
    return None


def note_hop(packet, coord: Coord, direction: Tuple[int, int],
             torus: Torus3D) -> None:
    """Update the packet's dateline state for one planned torus hop.

    Turning onto a new axis resets the dateline flag (each ring has its
    own dateline); crossing the wraparound link sets it, so this hop and
    every later hop on the ring ride the dateline VC.
    """
    axis, sign = direction
    if packet.route_axis != axis:
        packet.route_axis = axis
        packet.crossed_dateline = False
    if torus.is_wrap_hop(coord, axis, sign):
        packet.crossed_dateline = True


# ---------------------------------------------------------------------------
# Offline route tracing (tests, examples — no simulator required).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteHop:
    """One traced hop: where from, which way, on which VC, in which phase."""

    coord: Coord
    direction: Tuple[int, int]
    vc: int
    phase: int


def trace_route(packet, torus: Torus3D,
                max_hops: Optional[int] = None,
                probe=None, rng=None) -> Tuple[List[RouteHop], Coord]:
    """Walk a request packet's route hop by hop, without a simulator.

    Applies exactly the per-hop machinery the chips' planners use
    (:func:`next_request_direction` + :func:`note_hop` +
    :func:`~repro.netsim.packet.link_vc`), so tests can assert route
    shape, length, and VC discipline offline.  ``probe``/``rng`` feed the per-hop chooser of
    adaptive plans (an always-congested probe is how the livelock tests
    drive uncapped misrouting).  Returns ``(hops, final_coord)``; raises
    ``RuntimeError`` if the walk exceeds ``max_hops`` (a routing cycle,
    or a livelocked adaptive walk).
    """
    from ..netsim.packet import TrafficClass, link_vc

    if packet.traffic_class is not TrafficClass.REQUEST:
        raise ValueError("trace_route walks request packets only")
    limit = (max_hops if max_hops is not None
             else 4 * sum(torus.dims.as_tuple()) + 8)
    coord = torus.normalize(packet.src_node)
    hops: List[RouteHop] = []
    while True:
        direction = next_request_direction(packet, coord, torus,
                                           probe=probe, rng=rng)
        if direction is None:
            return hops, coord
        note_hop(packet, coord, direction, torus)
        hops.append(RouteHop(coord=coord, direction=direction,
                             vc=link_vc(packet),
                             phase=packet.route.phase_index))
        coord = torus.neighbor(coord, *direction)
        if len(hops) > limit:
            raise RuntimeError(
                f"route from {packet.src_node} to {packet.dst_node} did "
                f"not terminate within {limit} hops")
