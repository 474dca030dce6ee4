"""Oblivious minimal policies: fixed XYZ and the paper's randomized order.

Both are single-phase minimal dimension-order routes; they differ only in
how the order is chosen.  ``fixed-xyz`` is the classic deterministic DOR
baseline (every packet resolves X, then Y, then Z), the policy whose load
imbalance under adversarial permutations the randomized scheme exists to
fix.  ``randomized-minimal`` is Section III-B2's choice: one of the six
orders uniformly at random per packet, independent of network state —
the repository's default and, before this subsystem existed, its only
behavior.

Invariants tests rely on: both policies emit exactly one minimal phase
(route length equals ``torus.min_hops``), their hops ride the escape
request VCs (``link_vc == 2 * vc_class + dateline``; fixed-xyz pins
class 0, randomized-minimal spreads class per source GC), and
``randomized-minimal`` draws exactly one ``rng.choice`` per plan —
reproducing the pre-subsystem RNG stream draw for draw, which is what
keeps the fig5/fig11 results unchanged.
"""

from __future__ import annotations

import random

from ..topology.torus import DIMENSION_ORDERS, Coord
from .policy import (
    RoutePhase,
    RoutePlan,
    RoutingPolicy,
    source_vc_class,
    spread_reroute_choice,
)

__all__ = ["FixedXYZPolicy", "RandomizedMinimalPolicy"]


class FixedXYZPolicy(RoutingPolicy):
    """Deterministic minimal dimension-order routing, always XYZ.

    Fully deterministic on purpose — order *and* VC class (always 0) —
    so the ablation baseline is the classic single-scheme DOR router
    with no load balancing anywhere.
    """

    name = "fixed-xyz"

    def make_plan(self, src: Coord, dst: Coord, rng: random.Random,
                  source=None) -> RoutePlan:
        return RoutePlan(policy=self.name, phases=(
            RoutePhase(target=self.torus.normalize(dst),
                       dim_order=(0, 1, 2)),))


class RandomizedMinimalPolicy(RoutingPolicy):
    """One of the six minimal orders, uniformly at random per packet.

    The order draw is a single ``rng.choice`` over
    :data:`~repro.topology.torus.DIMENSION_ORDERS`, reproducing the
    pre-subsystem behavior draw for draw so machines built with the
    default policy consume their RNG streams exactly as before.  The
    request VC class is spread per *source* (:func:`source_vc_class`)
    so the packet population fills all four request VCs without
    breaking same-path ordering.
    """

    name = "randomized-minimal"

    def make_plan(self, src: Coord, dst: Coord, rng: random.Random,
                  source=None) -> RoutePlan:
        order = rng.choice(DIMENSION_ORDERS)
        return RoutePlan(policy=self.name, phases=(
            RoutePhase(target=self.torus.normalize(dst), dim_order=order,
                       vc_class=source_vc_class(source)),))

    # The randomized flavor, kept under faults.
    reroute_choice = spread_reroute_choice
