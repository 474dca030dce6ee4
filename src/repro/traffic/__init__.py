"""Synthetic traffic subsystem: patterns, open-loop load sweeps.

This package gives the repository the standard interconnect-evaluation
axis the paper itself never exercises: latency-vs-offered-load curves
under synthetic traffic.  A spatial pattern (:mod:`~repro.traffic.patterns`)
picks destinations, an injection process (:mod:`~repro.traffic.injection`)
paces packets open-loop at a chosen fraction of per-slice channel
capacity, and :class:`~repro.traffic.openloop.OpenLoopHarness` measures
per-traffic-class latency percentiles and accepted throughput through a
warmup/measure/drain discipline.  Saturation detection lives in
:mod:`repro.analysis.saturation`; registered ``load-sweep-*`` sweeps in
:mod:`repro.runner.experiments` fan the load axis out in parallel.

Quick use::

    from repro.netsim import MachineConfig, NetworkMachine
    from repro.traffic import OpenLoopHarness, make_pattern

    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6))
    pattern = make_pattern("uniform", machine.torus)
    result = OpenLoopHarness(machine, pattern, offered_load=0.2).run()
    print(result.request_latency_ns)
"""

from .injection import InjectionProcess, offered_load_to_rate
from .openloop import ClassWindowStats, OpenLoopHarness, OpenLoopResult
from .patterns import (
    PATTERN_NAMES,
    AllToAllReductionPattern,
    BitComplementPattern,
    HotspotPattern,
    NeighborExchangePattern,
    PermutationPattern,
    TornadoPattern,
    TrafficPattern,
    TransposePattern,
    UniformRandomPattern,
    make_pattern,
)
from .surface import measure_load_point

__all__ = [
    "InjectionProcess",
    "offered_load_to_rate",
    "ClassWindowStats",
    "OpenLoopHarness",
    "OpenLoopResult",
    "PATTERN_NAMES",
    "AllToAllReductionPattern",
    "BitComplementPattern",
    "HotspotPattern",
    "NeighborExchangePattern",
    "PermutationPattern",
    "TornadoPattern",
    "TrafficPattern",
    "TransposePattern",
    "UniformRandomPattern",
    "make_pattern",
    "measure_load_point",
]
