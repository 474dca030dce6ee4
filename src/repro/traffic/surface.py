"""Pure-function run surfaces for the synthetic-traffic subsystem.

Picklable entry points for the parallel runner (:mod:`repro.runner`):
plain JSON-able parameters in, JSON-able results out, a fresh machine
per call.  One call of :func:`measure_load_point` is one point of a
latency-vs-offered-load curve, so a registered ``load-sweep-*`` sweep
fans the load axis out across worker processes and the saturation
analysis (:mod:`repro.analysis.saturation`) runs over the collected
records.  Faults are one more machine axis: the ``fault-sweep-*``
sweeps fan ``num_faults`` out at a saturating load.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..faults.schedule import random_fault_schedule
from ..netsim.config import MachineConfig
from ..netsim.machine import NetworkMachine
from .openloop import OpenLoopHarness
from .patterns import make_pattern


def measure_load_point(
    dims: Sequence[int] = (2, 2, 2),
    chip_cols: int = 6,
    chip_rows: int = 6,
    pattern: str = "uniform",
    routing: str = "randomized-minimal",
    offered_load: float = 0.1,
    machine_seed: int = 0,
    traffic_seed: int = 0,
    process: str = "bernoulli",
    read_fraction: float = 0.0,
    warmup_ns: float = 400.0,
    measure_ns: float = 1600.0,
    drain_ns: Optional[float] = None,
    hotspot_fraction: float = 0.5,
    num_faults: int = 0,
    fault_seed: int = 0,
    fault_kind: str = "dead-link",
) -> dict:
    """One open-loop load point on a fresh machine.

    ``routing`` names a registered policy (:mod:`repro.routing`) so the
    same load axis can be swept per policy (the ``route-ablation-*``
    sweeps).  Returns the
    :meth:`~repro.traffic.openloop.OpenLoopResult.to_dict` record:
    offered vs accepted load plus per-traffic-class latency percentiles
    for the measure window.

    ``num_faults`` seed-derived, connectivity-preserving faults of
    ``fault_kind`` land at t=0, so traffic routes around them and never
    meets an unreachable destination.  A faulted record adds
    ``faults``, the applied set, so plots can audit which cables died;
    ``num_faults=0`` is the healthy machine and its unchanged record.
    """
    faults = random_fault_schedule(
        tuple(dims), num_faults, seed=fault_seed, kind=fault_kind
    )
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
    traffic = make_pattern(pattern, machine.torus, fraction=hotspot_fraction)
    harness = OpenLoopHarness(
        machine,
        traffic,
        offered_load,
        seed=traffic_seed,
        process=process,
        read_fraction=read_fraction,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        drain_ns=drain_ns,
    )
    record = harness.run().to_dict()
    if faults:
        record["faults"] = faults.to_jsonable()
    return record

