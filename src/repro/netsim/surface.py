"""Pure-function experiment surfaces over the flit-level simulator.

These are the picklable entry points the parallel runner
(:mod:`repro.runner`) fans out across worker processes: plain JSON-able
parameters in, JSON-able results out, and a fresh machine per call so
concurrent runs never share mutable simulator state.  Each builds its
machine with ``NetworkMachine(config=MachineConfig(...))``, the one
construction path.  The benchmark suite declares its Figure 5 / scaling
grids in terms of these functions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .config import MachineConfig
from .machine import NetworkMachine
from .pingpong import PingPongHarness


def measure_latency_curve(
    dims: Sequence[int] = (4, 4, 8),
    chip_cols: int = 24,
    chip_rows: int = 12,
    machine_seed: int = 42,
    harness_seed: int = 17,
    max_hops: Optional[int] = None,
    samples_per_hop: int = 15,
) -> dict:
    """One-way latency vs hop count (the Figure 5 series) on a fresh machine.

    Returns mean one-way latency per hop count, per-hop percentile
    summaries (the same p50/p95/p99 aggregation path the load-sweep
    reports use), and the paper's linear fit (which excludes the 0-hop
    point).  JSON-object keys are strings.
    """
    from ..analysis.aggregate import summarize_values
    from ..analysis.fits import fit_latency_vs_hops

    machine = NetworkMachine(config=MachineConfig(
        dims=tuple(dims), chip_cols=chip_cols, chip_rows=chip_rows,
        seed=machine_seed, routing="randomized-minimal"))
    harness = PingPongHarness(machine, seed=harness_seed)
    samples = harness.latency_samples_vs_hops(
        max_hops=max_hops, samples_per_hop=samples_per_hop
    )
    points: Dict[int, float] = {
        hops: sum(values) / len(values) for hops, values in samples.items()
    }
    fit = None
    if len([hops for hops in points if hops > 0]) >= 2:
        line = fit_latency_vs_hops(points)
        fit = {
            "fixed_ns": float(line.fixed_ns),
            "per_hop_ns": float(line.per_hop_ns),
            "r_squared": float(line.r_squared),
        }
    return {
        "num_nodes": machine.torus.dims.num_nodes,
        "samples_per_hop": samples_per_hop,
        "points": {str(hops): mean for hops, mean in sorted(points.items())},
        "percentiles": {
            str(hops): summarize_values(values)
            for hops, values in sorted(samples.items())
        },
        "fit": fit,
    }


def measure_min_one_hop(
    dims: Sequence[int] = (4, 4, 8),
    chip_cols: int = 24,
    chip_rows: int = 12,
    machine_seed: int = 42,
    harness_seed: int = 18,
    samples: int = 30,
) -> dict:
    """Best-placement single-hop latency (the paper's ~55 ns number)."""
    machine = NetworkMachine(config=MachineConfig(
        dims=tuple(dims), chip_cols=chip_cols, chip_rows=chip_rows,
        seed=machine_seed, routing="randomized-minimal"))
    harness = PingPongHarness(machine, seed=harness_seed)
    minimum = harness.minimum_one_hop_latency(samples=samples)
    return {
        "num_nodes": machine.torus.dims.num_nodes,
        "samples": samples,
        "min_one_hop_ns": float(minimum),
    }
