"""Open-loop load sweeps: warmup / measure / drain on a NetworkMachine.

The harness drives a :class:`~repro.netsim.machine.NetworkMachine` the
way interconnect papers characterize fabrics: every node runs an
independent injection process (:mod:`repro.traffic.injection`) feeding a
spatial pattern (:mod:`repro.traffic.patterns`), and the measurement
follows the standard three-phase discipline:

1. **warmup** — traffic flows but nothing is recorded, letting queues
   reach steady state;
2. **measure** — packets injected in this window are latency-tracked,
   and flits delivered in this window define accepted throughput;
3. **drain** — injection stops and the simulation keeps running so
   measure-window packets still in flight can complete (up to a bound,
   so a saturated network still terminates).

Latency is reported per traffic class (requests, and responses when a
``read_fraction`` of the load is remote reads) through the same
percentile summaries (:func:`repro.analysis.aggregate.summarize_values`)
the figure-5 tables use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from ..analysis.aggregate import summarize_values
from ..engine.seeding import derive_seed
from ..netsim.machine import NetworkMachine
from ..netsim.packet import Packet, PacketKind, TrafficClass
from ..topology.torus import Coord
from .injection import InjectionProcess, offered_load_to_rate
from .patterns import TrafficPattern

__all__ = ["ClassWindowStats", "OpenLoopHarness", "OpenLoopResult"]


@dataclass
class ClassWindowStats:
    """Measure-window accounting for one traffic class."""

    injected_packets: int = 0
    injected_flits: int = 0
    delivered_packets: int = 0
    delivered_flits_in_window: int = 0
    latencies_ns: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "injected_packets": self.injected_packets,
            "injected_flits": self.injected_flits,
            "delivered_packets": self.delivered_packets,
            "delivered_flits_in_window": self.delivered_flits_in_window,
        }
        if self.latencies_ns:
            record["latency_ns"] = summarize_values(self.latencies_ns)
        return record


@dataclass
class OpenLoopResult:
    """One load point: offered vs accepted load and per-class latency."""

    pattern: str
    routing: str
    offered_load: float
    process: str
    seed: int
    warmup_ns: float
    measure_ns: float
    drain_ns: float
    num_nodes: int
    num_sources: int
    offered_load_measured: float
    accepted_load: float
    in_flight_at_end: int
    classes: Dict[str, ClassWindowStats]

    @property
    def request_latency_ns(self) -> Optional[Dict[str, object]]:
        stats = self.classes.get(TrafficClass.REQUEST.value)
        if stats is None or not stats.latencies_ns:
            return None
        return summarize_values(stats.latencies_ns)

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "routing": self.routing,
            "offered_load": self.offered_load,
            "process": self.process,
            "seed": self.seed,
            "warmup_ns": self.warmup_ns,
            "measure_ns": self.measure_ns,
            "drain_ns": self.drain_ns,
            "num_nodes": self.num_nodes,
            "num_sources": self.num_sources,
            "offered_load_measured": self.offered_load_measured,
            "accepted_load": self.accepted_load,
            "in_flight_at_end": self.in_flight_at_end,
            "classes": {name: stats.to_dict()
                        for name, stats in sorted(self.classes.items())},
        }


class OpenLoopHarness:
    """Runs one open-loop load point on a :class:`NetworkMachine`."""

    def __init__(self, machine: NetworkMachine, pattern: TrafficPattern,
                 offered_load: float, seed: int = 0,
                 process: str = "bernoulli", read_fraction: float = 0.0,
                 warmup_ns: float = 400.0, measure_ns: float = 1600.0,
                 drain_ns: Optional[float] = None) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if warmup_ns < 0 or measure_ns <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        self.machine = machine
        self.pattern = pattern
        self.offered_load = offered_load
        self.seed = seed
        self.process = process
        self.read_fraction = read_fraction
        self.warmup_ns = warmup_ns
        self.measure_ns = measure_ns
        # The drain bound keeps saturated runs finite; by default it is as
        # long as warmup + measure, ample for everything below saturation.
        self.drain_ns = (drain_ns if drain_ns is not None
                         else warmup_ns + measure_ns)
        self._stats: Dict[str, ClassWindowStats] = {}
        self._inject_end_ns = warmup_ns + measure_ns

    # ------------------------------------------------------------------
    # Per-packet plumbing.
    # ------------------------------------------------------------------

    def _class_stats(self, traffic_class: TrafficClass) -> ClassWindowStats:
        name = traffic_class.value
        if name not in self._stats:
            self._stats[name] = ClassWindowStats()
        return self._stats[name]

    def _in_window(self, time_ns: Optional[float]) -> bool:
        return (time_ns is not None
                and self.warmup_ns <= time_ns < self._inject_end_ns)

    def _on_delivered(self, packet: Packet) -> None:
        stats = self._class_stats(packet.traffic_class)
        if self._in_window(packet.delivered_ns):
            stats.delivered_flits_in_window += packet.num_flits
        if self._in_window(packet.injected_ns):
            stats.delivered_packets += 1
            stats.latencies_ns.append(packet.latency_ns)

    def _inject_one(self, node: Coord, rng: random.Random) -> None:
        machine = self.machine
        dst = self.pattern.next_destination(node, rng)
        src_core = machine.random_gc_address(rng)
        dst_core = machine.random_gc_address(rng)
        is_read = (self.read_fraction > 0.0
                   and rng.random() < self.read_fraction)
        kind = PacketKind.READ_REQUEST if is_read else PacketKind.COUNTED_WRITE
        # Route choice is delegated to the machine's routing policy; the
        # draws come from this source's pick stream so sweeps stay
        # deterministic across processes.
        packet = machine.make_request(
            kind, node, src_core, dst, dst_core,
            payload_words=(1,) if is_read else (1, 0, 0, 0),
            accumulate=self.pattern.accumulate and not is_read, rng=rng)
        machine.inject(packet)
        if self._in_window(machine.sim.now):
            stats = self._class_stats(TrafficClass.REQUEST)
            stats.injected_packets += 1
            stats.injected_flits += packet.num_flits

    def _start_source(self, node: Coord, rate: float) -> None:
        """Kick off one node's self-rescheduling injection process."""
        machine = self.machine
        node_id = machine.torus.node_id(node)
        gaps = InjectionProcess(
            rate, kind=self.process,
            rng=random.Random(
                derive_seed(self.seed, "traffic", "gaps", node_id)),
            slot_ns=machine.params.flit_serialization_ns)
        picks = random.Random(
            derive_seed(self.seed, "traffic", "picks", node_id))
        self._schedule_fire(node, picks, gaps)

    def _schedule_fire(self, node: Coord, picks: random.Random,
                       gaps: InjectionProcess) -> None:
        """Schedule the source's next injection, if it falls before the
        end of the measure window.

        Each firing schedules a fresh event rather than itself, so a
        source leaves no reference cycle behind.
        """
        sim = self.machine.sim
        next_time = sim.now + gaps.next_gap_ns()
        if next_time < self._inject_end_ns:
            sim.at(next_time, partial(self._fire, node, picks, gaps))

    def _fire(self, node: Coord, picks: random.Random,
              gaps: InjectionProcess) -> None:
        self._inject_one(node, picks)
        self._schedule_fire(node, picks, gaps)

    # ------------------------------------------------------------------
    # The measurement.
    # ------------------------------------------------------------------

    def run(self) -> OpenLoopResult:
        machine = self.machine
        sim = machine.sim
        torus = machine.torus
        sources = [node for node in torus.nodes()
                   if self.pattern.sends_from(node)]
        if not sources:
            raise ValueError(
                f"pattern {self.pattern.name!r} has no sending nodes "
                f"on this torus")
        rate = offered_load_to_rate(self.offered_load, machine.params)

        machine.set_delivery_hook(self._on_delivered)
        try:
            for node in sources:
                self._start_source(node, rate)
            sim.run(until=self._inject_end_ns + self.drain_ns)
        finally:
            machine.set_delivery_hook(None)

        slice_flits_per_ns = 1.0 / machine.params.flit_serialization_ns
        window_capacity = (self.measure_ns * len(sources)
                           * slice_flits_per_ns)
        request = self._class_stats(TrafficClass.REQUEST)
        offered_measured = request.injected_flits / window_capacity
        accepted = request.delivered_flits_in_window / window_capacity
        # Responses are injected by remote chips, so only the request
        # class has a meaningful injected-vs-delivered window balance.
        in_flight = request.injected_packets - request.delivered_packets
        return OpenLoopResult(
            pattern=self.pattern.name,
            routing=machine.routing.name,
            offered_load=self.offered_load,
            process=self.process,
            seed=self.seed,
            warmup_ns=self.warmup_ns,
            measure_ns=self.measure_ns,
            drain_ns=self.drain_ns,
            num_nodes=torus.dims.num_nodes,
            num_sources=len(sources),
            offered_load_measured=offered_measured,
            accepted_load=accepted,
            in_flight_at_end=in_flight,
            classes=dict(self._stats))
