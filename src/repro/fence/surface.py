"""Pure-function experiment surface for network-fence barriers.

Picklable entry point for the parallel runner (:mod:`repro.runner`):
builds a fresh machine, runs one barrier per requested synchronization
domain, and returns JSON-able latencies plus the Figure 11 linear fit.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..netsim.config import MachineConfig
from ..netsim.machine import NetworkMachine
from .engine import FenceEngine, FencePattern


def measure_fence_curve(
    dims: Sequence[int] = (4, 4, 8),
    chip_cols: int = 24,
    chip_rows: int = 12,
    seed: int = 42,
    hops: Optional[Sequence[int]] = None,
    max_hops: Optional[int] = None,
    pattern: str = "gc_to_gc",
    request_vcs: int = 4,
    slices: int = 2,
) -> dict:
    """Barrier latency per synchronization-domain hop count (Figure 11).

    ``hops`` pins the exact domain sizes to measure; otherwise every
    domain from 0 to ``max_hops`` (default: the torus diameter) is run.
    ``request_vcs``/``slices`` control fence-copy coverage, as in the
    512-node scaling study.
    """
    from ..analysis.fits import fit_latency_vs_hops

    machine = NetworkMachine(
        config=MachineConfig(
            dims=tuple(dims),
            chip_cols=chip_cols,
            chip_rows=chip_rows,
            seed=seed,
            routing="randomized-minimal",
        )
    )
    engine = FenceEngine(machine, request_vcs=request_vcs, slices=slices)
    if hops is None:
        limit = machine.torus.dims.diameter if max_hops is None else max_hops
        hop_list = list(range(limit + 1))
    else:
        hop_list = [int(h) for h in hops]
    fence_pattern = FencePattern(pattern)
    latencies = {h: float(engine.barrier_latency(h, fence_pattern)) for h in hop_list}
    fit = None
    if len([h for h in hop_list if h > 0]) >= 2:
        line = fit_latency_vs_hops(latencies)
        fit = {
            "fixed_ns": float(line.fixed_ns),
            "per_hop_ns": float(line.per_hop_ns),
            "r_squared": float(line.r_squared),
        }
    return {
        "num_nodes": machine.torus.dims.num_nodes,
        "pattern": fence_pattern.value,
        "copies_per_direction": engine.copies_per_direction,
        "latencies": {str(h): ns for h, ns in sorted(latencies.items())},
        "fit": fit,
    }
