"""Fault injection and degraded-mode routing for the torus fabric.

The fault model has four moving parts:

* :mod:`~repro.faults.schedule` — frozen, seed-derived descriptions of
  *which* resources die *when* (dead cables, dead routers, dead VCs,
  transient flaps);
* :mod:`~repro.faults.state` — the machine's live picture of what is
  currently dead, epoch-counted for cache invalidation;
* :mod:`~repro.faults.inject` — turns schedule events into concrete
  ``Link.fail()`` / ``restore()`` actions at the right sim times;
* :mod:`~repro.faults.reroute` — live-shortest-path tables that every
  routing policy consults while faults are active, preserving each
  policy's choice flavor via ``RoutingPolicy.reroute_choice``.

Faults are a machine axis of the healthy run surfaces: the
``num_faults`` parameters of
:func:`repro.traffic.surface.measure_load_point` and
:func:`repro.workload.surface.measure_phase_loop` build a
:func:`~repro.faults.schedule.random_fault_schedule` into the machine's
``MachineConfig.faults``.
"""

from .inject import FaultInjector
from .reroute import FaultAdviser
from .schedule import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    all_cables,
    cable_links,
    random_fault_schedule,
    router_links,
)
from .state import FaultState

__all__ = [
    "FAULT_KINDS",
    "FaultAdviser",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultState",
    "all_cables",
    "cable_links",
    "random_fault_schedule",
    "router_links",
]
