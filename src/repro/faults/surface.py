"""Pure-function run surfaces for degraded-mode (faulted) experiments.

Picklable entry points for the parallel runner (:mod:`repro.runner`):
plain JSON-able parameters in, JSON-able results out, a fresh machine
per call.  One :func:`measure_fault_load_point` call is one open-loop
accepted-load measurement on a machine degraded by ``num_faults``
seed-derived faults; one :func:`measure_fault_phase_loop` call is one
fence-synchronized phase workload on such a machine.  The
``fault-sweep-<policy>`` / ``fault-phase-loop-<policy>`` sweeps fan the
fault-count axis out per routing policy, which is the graceful-
degradation story: how much throughput each policy keeps as cables die.

Fault sets are connected by construction
(:func:`~repro.faults.schedule.random_fault_schedule` resamples
partitioning draws), so every measurement is of *routing around* faults,
never of unreachable destinations; all faults land at t=0 so closed-loop
bursts and fences see a static degraded fabric.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..netsim.config import MachineConfig
from ..netsim.machine import NetworkMachine
from ..topology.torus import Coord, DIRECTIONS
from .schedule import random_fault_schedule

__all__ = ["live_fence_diameter", "measure_fault_load_point",
           "measure_fault_phase_loop"]


def live_fence_diameter(machine: NetworkMachine) -> int:
    """The directed diameter of the live fence-capable channel graph.

    A fence with this many hops satisfies the engine's domain check on
    any connected faulted fabric (every pair is within the round
    budget); on a healthy machine it equals the torus diameter.
    """
    state = machine.fault_state
    torus = machine.torus
    if not state.active:
        return torus.dims.diameter
    diameter = 0
    for source in torus.nodes():
        dist: Dict[Coord, int] = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for coord in frontier:
                for axis, sign in DIRECTIONS:
                    if all(state.is_channel_dead(coord, (axis, sign), s)
                           or state.is_vc_dead(coord, (axis, sign), s, 0)
                           for s in (0, 1)):
                        continue
                    neighbor = torus.neighbor(coord, axis, sign)
                    if neighbor not in dist:
                        dist[neighbor] = dist[coord] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        if len(dist) < torus.dims.num_nodes:
            raise ValueError(f"live fabric is partitioned at {source}")
        diameter = max(diameter, max(dist.values()))
    return diameter


def _faulted_machine(dims: Sequence[int], chip_cols: int, chip_rows: int,
                     machine_seed: int, routing: str, num_faults: int,
                     fault_seed: int, fault_kind: str) -> NetworkMachine:
    faults = random_fault_schedule(tuple(dims), num_faults, seed=fault_seed,
                                   kind=fault_kind)
    return NetworkMachine(config=MachineConfig(
        dims=tuple(dims), chip_cols=chip_cols, chip_rows=chip_rows,
        seed=machine_seed, routing=routing,
        faults=faults if len(faults) else None))


def measure_fault_load_point(
    dims: Sequence[int] = (4, 2, 2),
    chip_cols: int = 6,
    chip_rows: int = 6,
    pattern: str = "uniform",
    routing: str = "randomized-minimal",
    offered_load: float = 0.3,
    num_faults: int = 0,
    fault_seed: int = 0,
    fault_kind: str = "dead-link",
    machine_seed: int = 0,
    traffic_seed: int = 0,
    process: str = "bernoulli",
    warmup_ns: float = 400.0,
    measure_ns: float = 1600.0,
    drain_ns: Optional[float] = None,
    hotspot_fraction: float = 0.5,
) -> dict:
    """One open-loop load point on a degraded machine.

    Identical measurement to
    :func:`repro.traffic.surface.measure_load_point` plus the fault
    axis: ``num_faults`` seed-derived, connectivity-preserving faults of
    ``fault_kind`` applied at t=0.  ``num_faults=0`` is the healthy
    baseline each degradation curve is normalized against.  The record
    adds the applied fault set, so plots can audit which cables died.
    """
    from ..traffic.openloop import OpenLoopHarness
    from ..traffic.patterns import make_pattern

    machine = _faulted_machine(dims, chip_cols, chip_rows, machine_seed,
                               routing, num_faults, fault_seed, fault_kind)
    traffic = make_pattern(pattern, machine.torus,
                           fraction=hotspot_fraction)
    harness = OpenLoopHarness(
        machine, traffic, offered_load, seed=traffic_seed, process=process,
        warmup_ns=warmup_ns, measure_ns=measure_ns, drain_ns=drain_ns)
    record = harness.run().to_dict()
    record["num_faults"] = num_faults
    record["fault_kind"] = fault_kind
    record["faults"] = (machine.config.faults.to_jsonable()
                        if machine.config.faults is not None else [])
    return record


def measure_fault_phase_loop(
    dims: Sequence[int] = (4, 2, 2),
    chip_cols: int = 6,
    chip_rows: int = 6,
    pattern: str = "halo",
    routing: str = "randomized-minimal",
    messages_per_node: int = 8,
    window: int = 4,
    iterations: int = 2,
    fence_hops: Optional[int] = None,
    num_faults: int = 0,
    fault_seed: int = 0,
    machine_seed: int = 0,
    workload_seed: int = 0,
) -> dict:
    """One fence-synchronized phase workload on a degraded machine.

    The degraded-mode iteration-time metric: same MD-timestep shape as
    :func:`repro.workload.surface.measure_phase_loop`, with ``num_faults``
    connected dead-link faults at t=0.  ``fence_hops`` defaults to the
    *live* fence diameter — on a faulted fabric the healthy torus
    diameter can violate the fence engine's round budget, so the global
    barrier widens with the damage (and its cost shows up in the
    metric, as it would on real degraded hardware).
    """
    from ..traffic.patterns import make_pattern
    from ..workload.phases import PhaseLoopHarness, md_timestep_phases

    machine = _faulted_machine(dims, chip_cols, chip_rows, machine_seed,
                               routing, num_faults, fault_seed, "dead-link")
    if fence_hops is None:
        fence_hops = live_fence_diameter(machine)
    spatial = make_pattern(pattern, machine.torus)
    phases = md_timestep_phases(machine,
                                messages_per_node=messages_per_node,
                                window=window, pattern=spatial)
    harness = PhaseLoopHarness(machine, phases, seed=workload_seed,
                               fence_hops=fence_hops)
    record = harness.run(iterations).to_dict()
    record["messages_per_node"] = messages_per_node
    record["window"] = window
    record["num_faults"] = num_faults
    record["faults"] = (machine.config.faults.to_jsonable()
                        if machine.config.faults is not None else [])
    return record
