"""True per-hop adaptive routing with a Duato-style escape VC layer.

The oblivious policies commit to one minimal order at injection,
because re-choosing directions mid-flight on a torus is only
deadlock-free with extra machinery.  This module adds that machinery.
Each link's VC set is split into two layers:

* **Adaptive layer** — the dedicated adaptive VC
  (:data:`repro.netsim.packet.ADAPTIVE_VC`).  On it a packet may take
  *any productive direction* (any axis with a nonzero minimal offset
  toward the phase target; at an exact half-ring tie both signs are
  productive), chosen per hop from downstream credit and occupancy of
  the candidate channels' adaptive VCs.  When every productive adaptive
  VC is full, the packet may **misroute** — take a non-productive,
  non-wraparound direction whose adaptive VC has room — but only while
  its per-packet misroute budget (``RoutePlan.max_misroutes``) lasts.
* **Escape layer** — the four dateline-disciplined request VCs
  (``link_vc == 2 * vc_class + dateline``), on which routing is
  deterministic minimal dimension-order exactly as in every oblivious
  policy.  A packet that cannot win an adaptive VC (and cannot or may
  not misroute) falls back here for the hop and is restricted minimally.

Deadlock freedom is Duato's argument: the escape subnetwork (minimal
DOR + dateline VC split per ring) is deadlock-free on its own, escape
routing depends only on the packet's current node and phase target, and
a packet holding or waiting on adaptive resources can always request
its escape VC at the next routing decision — so every channel-wait
cycle through the adaptive layer drains through the escape layer.
Misroutes never cross a ring's wraparound link, so an escape leg after
any number of adaptive hops still crosses each dateline at most once
and the per-ring two-VC argument survives adaptivity.

Livelock freedom comes from the misroute cap: after at most
``max_misroutes`` non-minimal hops every further hop — adaptive or
escape — strictly decreases the remaining minimal distance, so the walk
terminates within ``min_hops + 2 * max_misroutes`` hops.  Plans built
with ``max_misroutes=None`` lose exactly this guarantee; the routing
tests drive such a plan with an always-congested probe and watch it
livelock, which is the written proof that the cap matters.

The per-hop chooser draws only from the caller's ``rng`` (score ties)
and ``probe`` (credit/occupancy observations), both supplied by the
chip from deterministic seeded state — runner sweeps with
``routing="adaptive-escape"`` stay byte-identical across ``--jobs``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..topology.torus import Coord, Torus3D
from .policy import (
    RoutePhase,
    RoutePlan,
    RoutingPolicy,
    source_vc_class,
    spread_reroute_choice,
)

__all__ = [
    "AdaptiveEscapePolicy",
    "AdaptiveVcProbe",
    "DEFAULT_MISROUTE_BUDGET",
    "adaptive_escape_direction",
]

#: Per-hop adaptive-VC state oracle supplied by the router:
#: ``(node, (axis, sign)) -> (credits, queued_flits)`` of the node's
#: outgoing channel's adaptive VC in that direction.
AdaptiveVcProbe = Callable[[Coord, Tuple[int, int]], Tuple[int, int]]

#: Non-minimal hops one packet may take before being pinned minimal.
DEFAULT_MISROUTE_BUDGET = 4

Direction = Tuple[int, int]


def _productive_directions(offsets: Tuple[int, int, int],
                           dims: Tuple[int, int, int]) -> List[Direction]:
    """Directions that reduce the minimal distance to the phase target.

    One direction per axis with a nonzero offset — plus the opposite
    sign when the offset is exactly half the ring, where both rotations
    are minimal (the tie tornado traffic lives on: a per-hop adaptive
    router balances the two ring directions that oblivious minimal
    routing must commit to blindly).
    """
    productive: List[Direction] = []
    for axis in (0, 1, 2):
        offset = offsets[axis]
        if not offset:
            continue
        sign = 1 if offset > 0 else -1
        productive.append((axis, sign))
        if 2 * abs(offset) == dims[axis]:
            productive.append((axis, -sign))
    return productive


def _win_adaptive_vc(candidates: List[Direction], coord: Coord,
                     probe: AdaptiveVcProbe, num_flits: int,
                     rng: Optional[random.Random]) -> Optional[Direction]:
    """The winnable candidate with the most adaptive-VC headroom.

    A direction is winnable when its channel's adaptive VC has credit
    for the whole packet beyond what is already queued locally
    (``credits - queued_flits >= num_flits``); the winner maximizes that
    headroom and ties break via ``rng`` (first candidate when no rng is
    supplied, keeping offline traces deterministic).
    """
    best: List[Direction] = []
    best_headroom: Optional[int] = None
    for direction in candidates:
        credits, queued_flits = probe(coord, direction)
        headroom = int(credits) - int(queued_flits)
        if headroom < num_flits:
            continue
        if best_headroom is None or headroom > best_headroom:
            best, best_headroom = [direction], headroom
        elif headroom == best_headroom:
            best.append(direction)
    if not best:
        return None
    if rng is None or len(best) == 1:
        return best[0]
    return best[rng.randrange(len(best))]


def adaptive_escape_direction(packet, coord: Coord, torus: Torus3D,
                              probe: Optional[AdaptiveVcProbe] = None,
                              rng: Optional[random.Random] = None,
                              faults=None,
                              events=None) -> Optional[Direction]:
    """One per-hop routing decision for an adaptive-escape packet.

    Tries, in order: a productive adaptive hop, a misroute (budget and
    probe permitting), and finally the escape layer's deterministic
    minimal dimension-order hop.  Mutates the packet's layer state:
    ``packet.on_escape`` records which layer the chosen hop rides (it
    decides the VC via :func:`repro.netsim.packet.link_vc`) and
    ``packet.misroutes`` counts spent budget.  With no ``probe`` (e.g.
    offline traces without a fabric) every hop is an escape hop.
    Returns ``None`` at the phase target.

    Under faults (``faults`` is the machine's fault adviser) the
    adaptive layer needs no special handling — dead channels read zero
    adaptive-VC credit, so they can never win a productive or misroute
    hop — but the escape leg must stay live and progressing, so it
    follows the adviser's live-shortest-path table instead of the
    blind dimension order.

    ``events`` is the observability hook (:mod:`repro.observe`): called
    with ``"adaptive"``, ``"misroute"``, or ``"escape"`` as each hop's
    layer decision lands.  It observes only — no event may influence
    the decision — and stays ``None`` on unobserved machines.
    """
    plan: RoutePlan = packet.route
    phase = plan.current
    offsets = torus.offsets(coord, phase.target)
    dims = torus.dims.as_tuple()
    if faults is not None:
        return _faulted_adaptive_direction(packet, coord, torus, phase,
                                           probe, rng, faults, events)
    productive = _productive_directions(offsets, dims)
    if not productive:
        return None
    if probe is not None:
        choice = _win_adaptive_vc(productive, coord, probe,
                                  packet.num_flits, rng)
        if choice is not None:
            packet.on_escape = False
            if events is not None:
                events("adaptive")
            return choice
        # Every productive adaptive VC is full: misroute while budget
        # lasts, onto any non-productive direction whose adaptive VC has
        # room.  Wraparound hops are excluded so misrouting can never
        # add a second dateline crossing to a ring traversal.
        if plan.max_misroutes is None or packet.misroutes < plan.max_misroutes:
            detours = [
                (axis, sign)
                for axis in (0, 1, 2) for sign in (1, -1)
                if (axis, sign) not in productive
                and not torus.is_wrap_hop(coord, axis, sign)
            ]
            choice = _win_adaptive_vc(detours, coord, probe,
                                      packet.num_flits, rng)
            if choice is not None:
                packet.misroutes += 1
                packet.on_escape = False
                if events is not None:
                    events("misroute")
                return choice
    # Escape: the deterministic dimension-order hop on the dateline VCs.
    packet.on_escape = True
    if events is not None:
        events("escape")
    for axis in phase.dim_order:
        if offsets[axis]:
            return (axis, 1 if offsets[axis] > 0 else -1)
    return None


def _faulted_adaptive_direction(packet, coord: Coord, torus: Torus3D,
                                phase, probe: Optional[AdaptiveVcProbe],
                                rng: Optional[random.Random],
                                faults, events=None) -> Optional[Direction]:
    """The degraded-mode per-hop decision for an adaptive plan.

    "Productive" is redefined against the *live* graph: the adviser's
    strictly-distance-decreasing direction set replaces the torus-offset
    set.  That redefinition is what keeps the walk livelock-free — a
    torus-minimal hop toward a dead link can increase live distance, and
    alternating such hops with escape corrections would never terminate.
    The layer structure is unchanged: credit-scored adaptive choice over
    the productive set, budget-capped misroutes over live non-wrap
    detours, escape via the policy's ``reroute_choice``.
    """
    target = torus.normalize(phase.target)
    if torus.normalize(coord) == target:
        return None
    productive = faults.route_options(coord, target, packet.slice_index)
    if probe is not None:
        choice = _win_adaptive_vc(productive, coord, probe,
                                  packet.num_flits, rng)
        if choice is not None:
            packet.on_escape = False
            if events is not None:
                events("adaptive")
            return choice
        if (packet.route.max_misroutes is None
                or packet.misroutes < packet.route.max_misroutes):
            detours = [
                (axis, sign)
                for axis in (0, 1, 2) for sign in (1, -1)
                if (axis, sign) not in productive
                and not torus.is_wrap_hop(coord, axis, sign)
                and not faults.is_dead(coord, (axis, sign),
                                       packet.slice_index)
            ]
            choice = _win_adaptive_vc(detours, coord, probe,
                                      packet.num_flits, rng)
            if choice is not None:
                packet.misroutes += 1
                packet.on_escape = False
                if events is not None:
                    events("misroute")
                return choice
    packet.on_escape = True
    choice = faults.reroute_choice_for(productive, rng)
    if events is not None and choice is not None:
        events("escape")
    return choice


class AdaptiveEscapePolicy(RoutingPolicy):
    """Fully per-hop adaptive routing over an escape-VC safety net."""

    name = "adaptive-escape"

    def __init__(self, torus: Torus3D,
                 max_misroutes: Optional[int] = DEFAULT_MISROUTE_BUDGET,
                 ) -> None:
        super().__init__(torus)
        self.max_misroutes = max_misroutes

    def make_plan(self, src: Coord, dst: Coord, rng: random.Random,
                  source=None) -> RoutePlan:
        """A single adaptive phase whose escape route is XYZ minimal.

        All load-dependent choice happens per hop in
        :func:`adaptive_escape_direction`; the plan only fixes the
        escape discipline (deterministic XYZ order on the source's VC
        class) and the misroute budget.  No rng draw happens here, so
        machines built with this policy consume their injection RNG
        streams exactly like ``fixed-xyz``.
        """
        return RoutePlan(
            policy=self.name,
            phases=(RoutePhase(target=self.torus.normalize(dst),
                               dim_order=(0, 1, 2),
                               vc_class=source_vc_class(source)),),
            adaptive=True,
            max_misroutes=self.max_misroutes,
        )

    # Degraded-mode escape hops; the adaptive layer's credit scoring
    # happens before this is reached.
    reroute_choice = spread_reroute_choice
