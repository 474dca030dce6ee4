"""The ping-pong latency experiment — Section III-C / Figure 5.

Software on core A sends a counted write of 16 bytes to memory associated
with core B on a remote ASIC; B's blocking read unstalls on receipt and B
immediately sends a counted write back.  One-way end-to-end latency is
half the round-trip time.  The paper averages over all GC pairs a given
number of inter-node hops apart; we sample placements uniformly (the
population is deterministic given placement, so sampling converges fast).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.seeding import derive_seed
from ..engine.stats import Summary
from ..topology.torus import Coord
from .machine import NetworkMachine
from .packet import CoreAddress


@dataclass
class PingPongResult:
    """Latency of one measured ping-pong placement."""

    src_node: Coord
    dst_node: Coord
    src_core: CoreAddress
    dst_core: CoreAddress
    hops: int
    one_way_ns: float


class PingPongHarness:
    """Runs counted-write ping-pongs on a :class:`NetworkMachine`."""

    def __init__(self, machine: NetworkMachine, seed: int = 1) -> None:
        self.machine = machine
        # Placement sampling follows the derive_seed convention so a
        # harness rebuilt in any worker process samples the same pairs.
        self.rng = random.Random(derive_seed(seed, "pingpong"))

    def measure_pair(self, src_node: Coord, src_core: CoreAddress,
                     dst_node: Coord, dst_core: CoreAddress,
                     rounds: int = 1,
                     slice_index: Optional[int] = None) -> PingPongResult:
        """Average one-way latency for one GC pair over ``rounds``."""
        machine = self.machine
        sim = machine.sim
        total = [0.0]
        completed = [0]

        dst_gc = machine.gc(dst_node, dst_core)
        src_gc = machine.gc(src_node, src_core)

        def start_round(round_index: int) -> None:
            start = sim.now
            ping_quad = 2 * round_index % dst_gc.sram.num_quads
            pong_quad = (2 * round_index + 1) % src_gc.sram.num_quads
            # Software resets the synchronization counters between rounds
            # (the machine object may be reused across measurements).
            dst_gc.sram.reset_counter(ping_quad)
            src_gc.sram.reset_counter(pong_quad)

            def on_pong(record) -> None:
                one_way = (sim.now - start) / 2.0
                total[0] += one_way
                completed[0] += 1
                if round_index + 1 < rounds:
                    start_round(round_index + 1)

            def on_ping(record) -> None:
                machine.send_counted_write(dst_node, dst_core, src_node,
                                           src_core, quad_addr=pong_quad,
                                           slice_index=slice_index)
                src_gc.read_port.issue(pong_quad, 1, on_pong)

            dst_gc.read_port.issue(ping_quad, 1, on_ping)
            machine.send_counted_write(src_node, src_core, dst_node,
                                       dst_core, quad_addr=ping_quad,
                                       slice_index=slice_index)

        sim.after(0.0, lambda: start_round(0))
        sim.run()
        if completed[0] != rounds:
            raise RuntimeError("ping-pong did not complete")
        hops = machine.torus.min_hops(src_node, dst_node)
        return PingPongResult(src_node, dst_node, src_core, dst_core,
                              hops, total[0] / rounds)

    def sample_pairs_at_hops(self, hops: int,
                             samples: int) -> List[Tuple[Coord, Coord]]:
        """Uniformly sample node pairs whose minimal distance is ``hops``."""
        torus = self.machine.torus
        nodes = list(torus.nodes())
        pairs = []
        attempts = 0
        while len(pairs) < samples and attempts < samples * 2000:
            attempts += 1
            a = self.rng.choice(nodes)
            b = self.rng.choice(nodes)
            if torus.min_hops(a, b) == hops:
                pairs.append((a, b))
        if not pairs:
            raise ValueError(f"no node pairs at {hops} hops in this torus")
        return pairs

    def latency_samples_vs_hops(
            self, max_hops: Optional[int] = None,
            samples_per_hop: int = 25) -> Dict[int, List[float]]:
        """Raw one-way latency samples per hop count.

        The sample lists feed the shared percentile aggregation
        (:func:`repro.analysis.aggregate.summarize_values`) used by the
        figure-5 surface and the load-sweep reports.
        """
        torus = self.machine.torus
        if max_hops is None:
            max_hops = torus.dims.diameter
        results: Dict[int, List[float]] = {}
        for hops in range(max_hops + 1):
            values: List[float] = []
            if hops == 0:
                nodes = [self.rng.choice(list(torus.nodes()))
                         for __ in range(samples_per_hop)]
                pairs = [(n, n) for n in nodes]
            else:
                pairs = self.sample_pairs_at_hops(hops, samples_per_hop)
            for src_node, dst_node in pairs:
                src_core = self.machine.random_gc_address(self.rng)
                dst_core = self.machine.random_gc_address(self.rng)
                if src_node == dst_node and src_core == dst_core:
                    dst_core = CoreAddress(
                        (src_core.tile_u + 1) % self.machine.chip_cols,
                        src_core.tile_v, src_core.which)
                result = self.measure_pair(src_node, src_core,
                                           dst_node, dst_core)
                values.append(result.one_way_ns)
            results[hops] = values
        return results

    def latency_vs_hops(self, max_hops: Optional[int] = None,
                        samples_per_hop: int = 25) -> Dict[int, Summary]:
        """Average one-way latency per hop count (the Figure 5 series)."""
        samples = self.latency_samples_vs_hops(max_hops, samples_per_hop)
        results: Dict[int, Summary] = {}
        for hops, values in samples.items():
            summary = Summary(f"one_way_ns@{hops}hops")
            for value in values:
                summary.observe(value)
            results[hops] = summary
        return results

    def minimum_one_hop_latency(self, samples: int = 60) -> float:
        """Best-placement single-hop latency (the paper's 55 ns number).

        Minimizes over sampled GC placements for neighboring nodes,
        including the best-case placements (GCs adjacent to the exit
        edge, destination on the matching row).
        """
        local = Summary("min_one_hop_ns")
        pairs = self.sample_pairs_at_hops(1, samples)
        # Channel-adapter attach rows, restricted to rows that exist on
        # reduced-size chips.
        ca_rows = tuple(row for row in (0, 1, 4, 5, 8, 9)
                        if row < self.machine.chip_rows)
        for i, (src_node, dst_node) in enumerate(pairs):
            if i % 2 == 0:
                # Favorable placement: both GCs on the left edge column
                # (matching slice 0) on a Channel Adapter attach row.
                row = self.rng.choice(ca_rows)
                src_core = CoreAddress(0, row, 0)
                dst_core = CoreAddress(0, row, 0)
                slice_index = 0
            else:
                src_core = self.machine.random_gc_address(self.rng)
                dst_core = self.machine.random_gc_address(self.rng)
                slice_index = None
            result = self.measure_pair(src_node, src_core, dst_node,
                                       dst_core, slice_index=slice_index)
            local.observe(result.one_way_ns)
        assert local.min is not None  # sample_pairs_at_hops never empty
        return local.min
