"""Pure-function run surfaces for the closed-loop workload subsystem.

Picklable entry points for the parallel runner (:mod:`repro.runner`):
plain JSON-able parameters in, JSON-able results out, a fresh machine
per call.  One :func:`measure_window_point` call is one point of a
throughput-vs-window curve (the ``closed-loop-*`` sweeps fan the window
axis out across workers); one :func:`measure_phase_loop` call is one
fence-synchronized phase-workload configuration (the ``phase-loop-*``
sweeps fan the routing-policy axis out, the ``fault-phase-loop-*``
sweeps the dead-cable axis).

Invariant: these functions are pure in ``(params,)`` — fresh machine,
fresh derived RNG streams, no module state — which is what makes their
results content-addressable by config digest and byte-identical across
``--jobs 1`` vs ``--jobs N``.  The ``routing`` parameter accepts every
registered policy name (:data:`repro.routing.POLICY_NAMES`), including
``adaptive-escape``; changing what a value means requires a version
bump on the registered experiment.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..faults.schedule import random_fault_schedule
from ..netsim.config import MachineConfig
from ..netsim.machine import NetworkMachine
from ..traffic.patterns import make_pattern
from .phases import PhaseLoopHarness, md_timestep_phases
from .window import FixedWindowHarness


def measure_window_point(
    dims: Sequence[int] = (2, 2, 2),
    chip_cols: int = 6,
    chip_rows: int = 6,
    pattern: str = "uniform",
    routing: str = "randomized-minimal",
    window: int = 4,
    machine_seed: int = 0,
    workload_seed: int = 0,
    read_fraction: float = 0.0,
    think_ns: float = 0.0,
    warmup_ns: float = 400.0,
    measure_ns: float = 1600.0,
    drain_ns: Optional[float] = None,
    hotspot_fraction: float = 0.5,
) -> dict:
    """One fixed-outstanding-window point on a fresh machine.

    Returns the
    :meth:`~repro.workload.window.WindowLoopResult.to_dict` record:
    self-throttled accepted load, completed-transaction latency
    percentiles, and mean outstanding occupancy for ``window`` requests
    in flight per node under the named pattern and routing policy.
    """
    machine = NetworkMachine(
        config=MachineConfig(
            dims=tuple(dims),
            chip_cols=chip_cols,
            chip_rows=chip_rows,
            seed=machine_seed,
            routing=routing,
        )
    )
    spatial = make_pattern(pattern, machine.torus, fraction=hotspot_fraction)
    harness = FixedWindowHarness(
        machine,
        spatial,
        window,
        seed=workload_seed,
        read_fraction=read_fraction,
        think_ns=think_ns,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        drain_ns=drain_ns,
    )
    return harness.run().to_dict()


def measure_phase_loop(
    dims: Sequence[int] = (2, 2, 2),
    chip_cols: int = 6,
    chip_rows: int = 6,
    pattern: str = "halo",
    routing: str = "randomized-minimal",
    messages_per_node: int = 12,
    window: int = 4,
    iterations: int = 2,
    fence_hops: Optional[int] = None,
    machine_seed: int = 0,
    workload_seed: int = 0,
    read_fraction: float = 0.0,
    hotspot_fraction: float = 0.5,
    num_faults: int = 0,
    fault_seed: int = 0,
) -> dict:
    """One fence-synchronized phase workload on a fresh machine.

    Models the MD timestep shape: an export burst over ``pattern``, a
    machine-wide fence, a return burst over the same pattern, another
    fence — ``iterations`` times.  Returns the
    :meth:`~repro.workload.phases.PhaseLoopResult.to_dict` record:
    per-iteration time, per-phase burst/fence breakdown, and the
    fence-wait fraction.

    ``num_faults`` seed-derived, connectivity-preserving dead links land
    at t=0.  ``fence_hops`` defaults to the live fence diameter
    (:meth:`~repro.fence.engine.FenceEngine.live_diameter`), so the
    global barrier widens with the damage and its cost shows up in the
    iteration time.  A faulted record adds ``faults``, the applied set.
    """
    faults = random_fault_schedule(tuple(dims), num_faults, seed=fault_seed)
    machine = NetworkMachine(
        config=MachineConfig(
            dims=tuple(dims),
            chip_cols=chip_cols,
            chip_rows=chip_rows,
            seed=machine_seed,
            routing=routing,
            faults=faults or None,
        )
    )
    spatial = make_pattern(pattern, machine.torus, fraction=hotspot_fraction)
    phases = md_timestep_phases(
        machine,
        messages_per_node=messages_per_node,
        window=window,
        pattern=spatial,
        read_fraction=read_fraction,
    )
    harness = PhaseLoopHarness(
        machine, phases, seed=workload_seed, fence_hops=fence_hops
    )
    result = harness.run(iterations)
    record = result.to_dict()
    record["messages_per_node"] = messages_per_node
    record["window"] = window
    if faults:
        record["faults"] = faults.to_jsonable()
    return record
