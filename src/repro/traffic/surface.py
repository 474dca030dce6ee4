"""Pure-function run surfaces for the synthetic-traffic subsystem.

Picklable entry points for the parallel runner (:mod:`repro.runner`):
plain JSON-able parameters in, JSON-able results out, a fresh machine
per call.  One call of :func:`measure_load_point` is one point of a
latency-vs-offered-load curve, so a registered ``load-sweep-*`` sweep
fans the load axis out across worker processes and the saturation
analysis (:mod:`repro.analysis.saturation`) runs over the collected
records.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
) -> dict:
    """One open-loop load point on a fresh machine.

    ``routing`` names a registered policy (:mod:`repro.routing`) so the
    same load axis can be swept per policy (the ``route-ablation-*``
    sweeps).  Returns the
    :meth:`~repro.traffic.openloop.OpenLoopResult.to_dict` record:
    offered vs accepted load plus per-traffic-class latency percentiles
    for the measure window.
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
    return harness.run().to_dict()


def measure_load_sweep(
    offered_loads: Sequence[float],
    latency_multiple: float = 3.0,
    **point_params: object,
) -> dict:
    """A whole latency-vs-load curve in-process, with saturation analysis.

    Convenience for examples and tests that do not go through the
    runner; each load point still builds a fresh machine, so results are
    identical to a runner sweep over the same parameters.
    """
    from ..analysis.saturation import analyze_load_sweep

    runs = [
        {"result": measure_load_point(offered_load=load, **point_params)}
        for load in sorted(float(load) for load in offered_loads)
    ]
    analysis = analyze_load_sweep(runs, latency_multiple)
    return {
        "points": [run["result"] for run in runs],
        "saturation": analysis.to_dict(),
    }
