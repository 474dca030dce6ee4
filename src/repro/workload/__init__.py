"""Closed-loop workload subsystem: self-throttling load generation.

Where :mod:`repro.traffic` offers load open-loop (and lets latency
diverge past saturation), this package drives the simulated machine the
way applications do — closed-loop:

* **Fixed-outstanding windows**
  (:class:`~repro.workload.window.FixedWindowHarness`): every node
  keeps ``W`` transactions in flight per traffic class, re-injecting on
  delivery through the machine delivery hooks.  Sweeping ``W`` yields
  accepted-throughput-vs-window and latency-vs-window curves that
  plateau at the fabric's self-throttled operating point
  (:func:`repro.analysis.closedloop.analyze_window_sweep` finds the
  knee).
* **Fence-synchronized phases**
  (:class:`~repro.workload.phases.PhaseLoopHarness`): bulk-synchronous
  iterations modeled on the MD timestep — halo export burst, network
  fence, force-return burst, fence — reusing the traffic pattern
  library for spatial shape and :class:`repro.fence.FenceEngine` for
  the barriers, reporting iteration time and fence-wait fraction.

Both compose with every routing policy and run through the parallel
runner as registered ``closed-loop-<pattern>`` / ``phase-loop-<pattern>``
sweeps (:mod:`repro.runner.experiments`), including the 512-node
adaptive-escape ablations (``scaling-512-closed-loop-adaptive``,
``scaling-512-phase-loop-adaptive``).

Invariants tests rely on (details in the submodule docstrings): writes
complete at destination commit and reads on response return keyed by
``(node, reply quad)`` with reply quads recycled on completion; at most
``window`` transactions in flight per node; all randomness from
``derive_seed`` streams so sweeps are byte-identical across ``--jobs``.

Quick use::

    from repro.netsim import MachineConfig, NetworkMachine
    from repro.traffic import make_pattern
    from repro.workload import FixedWindowHarness

    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6))
    pattern = make_pattern("uniform", machine.torus)
    result = FixedWindowHarness(machine, pattern, window=8).run()
    print(result.accepted_load, result.transaction_latency_ns)
"""

from .phases import (
    PhaseLoopHarness,
    PhaseLoopResult,
    PhaseSpec,
    md_timestep_phases,
)
from .surface import measure_phase_loop, measure_window_point
from .window import ClosedLoopDriver, FixedWindowHarness, WindowLoopResult

__all__ = [
    "ClosedLoopDriver",
    "FixedWindowHarness",
    "WindowLoopResult",
    "PhaseSpec",
    "PhaseLoopHarness",
    "PhaseLoopResult",
    "md_timestep_phases",
    "measure_window_point",
    "measure_phase_loop",
]
