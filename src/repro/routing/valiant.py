"""Valiant's randomized non-minimal routing: two minimal phases via a
random intermediate node.

Valiant's algorithm trades path length for load balance: every packet
first routes minimally to a uniformly random intermediate node, then
minimally to its destination, which turns *any* traffic pattern into two
rounds of uniform-random traffic.  Average hop count doubles — so under
benign patterns Valiant sustains roughly half the throughput of minimal
routing — but no adversarial permutation can concentrate load, which is
exactly the tradeoff the routing-ablation sweeps measure (tornado
traffic collapses minimal DOR while Valiant keeps both ring directions
busy).

Deadlock safety: each phase is a minimal dimension-order route with the
dateline VC split, and the two phases ride disjoint VC classes (0 then
1), so channel dependencies only flow phase 0 → phase 1 and the combined
dependency graph stays acyclic (see :mod:`repro.routing.policy`).
"""

from __future__ import annotations

import random

from ..topology.torus import DIMENSION_ORDERS, Coord, Torus3D
from .policy import RoutePhase, RoutePlan, RoutingPolicy

__all__ = ["ValiantPolicy"]


class ValiantPolicy(RoutingPolicy):
    """Random-intermediate two-phase routing (Valiant 1981)."""

    name = "valiant"

    def __init__(self, torus: Torus3D) -> None:
        super().__init__(torus)
        self._nodes = list(torus.nodes())

    def make_plan(self, src: Coord, dst: Coord, rng: random.Random,
                  source=None) -> RoutePlan:
        mid = self._nodes[rng.randrange(len(self._nodes))]
        # Each phase randomizes its dimension order independently, like
        # the paper's minimal scheme does for its single phase.
        first = rng.choice(DIMENSION_ORDERS)
        second = rng.choice(DIMENSION_ORDERS)
        # mid == src degenerates to minimal routing (phase 0 is empty and
        # the per-hop walker advances past it immediately); mid == dst
        # likewise ends phase 1 with zero hops.  Both are kept — dropping
        # them would bias the intermediate distribution.
        return RoutePlan(policy=self.name, phases=(
            RoutePhase(target=mid, dim_order=first, vc_class=0),
            RoutePhase(target=self.torus.normalize(dst), dim_order=second,
                       vc_class=1)))
