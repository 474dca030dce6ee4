"""Pluggable inter-node routing policies for the Anton 3 torus.

The paper credits randomized minimal dimension-order routing for the
network's load balance (Section III-B2); this package makes that choice
a policy object so the claim can be ablated.  A policy fixes each
request packet's :class:`~repro.routing.policy.RoutePlan` at injection
(one or more minimal dimension-order phases with their VC classes); the
chips resolve the plan hop by hop through
:func:`~repro.routing.policy.next_request_direction` and keep the
torus dateline VC discipline via :func:`~repro.routing.policy.note_hop`.
Response packets are untouched: they stay forced-XYZ, mesh-restricted,
on the dedicated response VC.

Policies:

* ``fixed-xyz`` — deterministic XYZ order, the classic DOR baseline.
* ``randomized-minimal`` — the paper's scheme and the default: one of
  the six orders uniformly at random per packet.
* ``valiant`` — non-minimal: two minimal phases via a uniformly random
  intermediate node, on disjoint VC classes.
* ``adaptive-escape`` — true per-hop adaptivity: any productive
  direction chosen per hop from downstream adaptive-VC credit and
  occupancy, a capped misroute budget, and a Duato-style fallback onto
  the dateline-disciplined escape VCs (:mod:`repro.routing.escape`).

Quick use::

    from repro.netsim import MachineConfig, NetworkMachine

    machine = NetworkMachine(config=MachineConfig(
        dims=(4, 1, 1), routing="valiant"))

or, for the latency-load ablation curves::

    repro-runner sweep route-ablation-valiant route-ablation-fixed-xyz
"""

from __future__ import annotations

from typing import Tuple

from ..topology.torus import Torus3D
from .escape import (
    AdaptiveEscapePolicy,
    AdaptiveVcProbe,
    DEFAULT_MISROUTE_BUDGET,
    adaptive_escape_direction,
)
from .oblivious import FixedXYZPolicy, RandomizedMinimalPolicy
from .policy import (
    RouteHop,
    RoutePhase,
    RoutePlan,
    RoutingPolicy,
    next_request_direction,
    note_hop,
    source_vc_class,
    trace_route,
)
from .valiant import ValiantPolicy

__all__ = [
    "AdaptiveEscapePolicy",
    "AdaptiveVcProbe",
    "DEFAULT_MISROUTE_BUDGET",
    "DEFAULT_POLICY",
    "FixedXYZPolicy",
    "POLICY_NAMES",
    "RandomizedMinimalPolicy",
    "RouteHop",
    "RoutePhase",
    "RoutePlan",
    "RoutingPolicy",
    "ValiantPolicy",
    "adaptive_escape_direction",
    "make_policy",
    "next_request_direction",
    "note_hop",
    "source_vc_class",
    "trace_route",
]

#: Registry of policy classes by CLI/experiment name.
_FACTORIES = {
    FixedXYZPolicy.name: FixedXYZPolicy,
    RandomizedMinimalPolicy.name: RandomizedMinimalPolicy,
    ValiantPolicy.name: ValiantPolicy,
    AdaptiveEscapePolicy.name: AdaptiveEscapePolicy,
}

POLICY_NAMES: Tuple[str, ...] = tuple(sorted(_FACTORIES))

DEFAULT_POLICY = RandomizedMinimalPolicy.name


def make_policy(name: str, torus: Torus3D) -> RoutingPolicy:
    """Construct a registered routing policy by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(POLICY_NAMES)
        raise KeyError(f"unknown routing policy {name!r}; "
                       f"known: {known}") from None
    return factory(torus)
