"""Fixed-outstanding-window closed-loop load generation.

Open-loop sweeps (:mod:`repro.traffic.openloop`) characterize a fabric
by *offering* load regardless of backpressure; applications do the
opposite: each node keeps a bounded number of requests in flight and
issues the next one only when an earlier one completes.  That
self-throttling is the standard closed-loop methodology for
application-representative interconnect studies, and it is how the
paper's MD timestep actually drives the Anton 3 network.

:class:`FixedWindowHarness` implements it over a
:class:`~repro.netsim.machine.NetworkMachine`: every sending node keeps
exactly ``W`` transactions outstanding (a counted write completes when
it commits at the destination; a remote read completes when its
response lands back at the requester), re-injecting through the
machine-wide delivery hook the open-loop harness introduced.  Sweeping
``W`` produces accepted-throughput-vs-window and latency-vs-window
curves that plateau at the fabric's self-throttled operating point
instead of diverging past saturation.

The measurement keeps the open-loop warmup / measure / drain
discipline, and accepted throughput uses the same normalization
(request flits delivered in the measure window over per-slice channel
capacity), so closed-loop plateaus are directly comparable to open-loop
saturation throughputs for the same (pattern, routing).

Invariants tests (and the cache-versioned experiments) rely on:

* A write transaction completes at its destination SRAM commit (matched
  by packet ``pid``); a read transaction completes when its response
  lands back at the requester, matched by ``(node, reply quad)``.
* Reply quads are allocated per node and **recycled on completion** —
  the in-flight set per node is bounded by the window, so quad ids
  never grow without bound and re-use cannot collide while a read is
  outstanding.
* Every node holds exactly ``window`` transactions in flight outside
  think time; ``outstanding`` never exceeds it, and the drain phase
  ends with zero in flight (``NetworkMachine.in_flight_counts``).
* All randomness (destination picks, read/write mix, think times)
  draws from ``derive_seed``-derived per-node streams, so runs are
  byte-identical across processes for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.aggregate import summarize_values
from ..engine.seeding import derive_seed
from ..netsim.machine import NetworkMachine
from ..netsim.packet import Packet, PacketKind, TrafficClass
from ..topology.torus import Coord
from ..traffic.patterns import TrafficPattern

__all__ = ["ClosedLoopDriver", "FixedWindowHarness", "WindowLoopResult"]


class ClosedLoopDriver:
    """Per-node transaction bookkeeping shared by the closed-loop harnesses.

    A *transaction* is one request and whatever completes it: a counted
    write completes when it is delivered; a remote read completes when
    its read response arrives back at the requesting node.  The driver
    owns the per-source destination-pick RNG streams (derived with
    :func:`~repro.engine.seeding.derive_seed`, the cross-process
    determinism convention) and the outstanding-transaction counters the
    window discipline throttles on.
    """

    def __init__(self, machine: NetworkMachine, pattern: TrafficPattern,
                 seed: int, read_fraction: float = 0.0,
                 stream: object = "workload") -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.machine = machine
        self.pattern = pattern
        self.read_fraction = read_fraction
        self.sources = [node for node in machine.torus.nodes()
                        if pattern.sends_from(node)]
        if not self.sources:
            raise ValueError(
                f"pattern {pattern.name!r} has no sending nodes on this torus")
        self._picks: Dict[Coord, random.Random] = {
            node: random.Random(derive_seed(
                seed, stream, "picks", machine.torus.node_id(node)))
            for node in self.sources}
        self.outstanding: Dict[Coord, int] = {n: 0 for n in self.sources}
        self.total_outstanding = 0
        self.max_outstanding = 0
        #: pid -> issuing node, for write transactions in flight.
        self._write_owner: Dict[int, Coord] = {}
        #: (node, reply quad) -> issue time, for reads in flight.
        self._read_issue: Dict[tuple, float] = {}
        # Reply quads are allocated per node and recycled on completion,
        # so a long run never outgrows the 8192-quad GC SRAM: at most
        # one quad per outstanding read per node is ever live.  Quad 0
        # is left to the write traffic.
        self._next_quad: Dict[Coord, int] = {n: 1 for n in self.sources}
        self._free_quads: Dict[Coord, list] = {n: [] for n in self.sources}

    def issue(self, node: Coord) -> Packet:
        """Inject one new transaction from ``node``; returns its request."""
        machine = self.machine
        rng = self._picks[node]
        dst = self.pattern.next_destination(node, rng)
        src_core = machine.random_gc_address(rng)
        dst_core = machine.random_gc_address(rng)
        is_read = (self.read_fraction > 0.0
                   and rng.random() < self.read_fraction)
        if is_read:
            kind = PacketKind.READ_REQUEST
            free = self._free_quads[node]
            if free:
                reply_quad = free.pop()
            else:
                reply_quad = self._next_quad[node]
                self._next_quad[node] += 1
            if reply_quad >= 8192:
                raise RuntimeError(
                    "more than 8191 reads outstanding from one node; "
                    "the GC quad SRAM cannot address their replies")
            payload = (reply_quad,)
        else:
            kind = PacketKind.COUNTED_WRITE
            payload = (1, 0, 0, 0)
        packet = machine.make_request(
            kind, node, src_core, dst, dst_core, payload_words=payload,
            accumulate=self.pattern.accumulate and not is_read, rng=rng)
        machine.inject(packet)
        if is_read:
            self._read_issue[(node, payload[0])] = machine.sim.now
        else:
            self._write_owner[packet.pid] = node
        self.outstanding[node] += 1
        self.total_outstanding += 1
        self.max_outstanding = max(self.max_outstanding,
                                   self.outstanding[node])
        return packet

    def completion(self, packet: Packet) -> Optional[tuple]:
        """The transaction one delivery completes, if any.

        Returns ``(node, issue_time_ns)`` for the transaction this
        delivered packet closes — the write request itself, or the read
        response carrying the transaction's reply quad — and updates the
        outstanding counters.  Returns ``None`` for deliveries that keep
        their transaction open (a read request reaching its target).
        """
        if (packet.traffic_class is TrafficClass.REQUEST
                and packet.kind is PacketKind.COUNTED_WRITE):
            node = self._write_owner.pop(packet.pid, None)
            issued = packet.injected_ns
        elif packet.kind is PacketKind.READ_RESPONSE:
            node = self.machine.torus.normalize(packet.dst_node)
            issued = self._read_issue.pop((node, packet.quad_addr), None)
            if issued is not None:
                self._free_quads[node].append(packet.quad_addr)
            else:
                node = None
        else:
            return None
        if node is None:
            return None
        self.outstanding[node] -= 1
        self.total_outstanding -= 1
        return node, issued


@dataclass
class WindowLoopResult:
    """One window point: self-throttled throughput and latency."""

    pattern: str
    routing: str
    window: int
    seed: int
    read_fraction: float
    think_ns: float
    warmup_ns: float
    measure_ns: float
    drain_ns: float
    num_nodes: int
    num_sources: int
    completed_transactions: int
    accepted_load: float
    mean_outstanding_per_source: float
    in_flight_at_end: int
    transaction_latencies_ns: List[float] = field(default_factory=list)

    @property
    def transaction_latency_ns(self) -> Optional[Dict[str, object]]:
        if not self.transaction_latencies_ns:
            return None
        return summarize_values(self.transaction_latencies_ns)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "pattern": self.pattern,
            "routing": self.routing,
            "window": self.window,
            "seed": self.seed,
            "read_fraction": self.read_fraction,
            "think_ns": self.think_ns,
            "warmup_ns": self.warmup_ns,
            "measure_ns": self.measure_ns,
            "drain_ns": self.drain_ns,
            "num_nodes": self.num_nodes,
            "num_sources": self.num_sources,
            "completed_transactions": self.completed_transactions,
            "accepted_load": self.accepted_load,
            "mean_outstanding_per_source": self.mean_outstanding_per_source,
            "in_flight_at_end": self.in_flight_at_end,
        }
        summary = self.transaction_latency_ns
        if summary is not None:
            record["transactions"] = {"latency_ns": summary}
        return record


class FixedWindowHarness:
    """Runs one fixed-outstanding-window point on a machine.

    Every sending node is primed with ``window`` transactions and issues
    a replacement the moment one completes (optionally after a
    ``think_ns`` software turnaround), so at most ``window`` requests
    per node are ever in flight — the in-flight invariant the tests pin
    through :attr:`ClosedLoopDriver.max_outstanding`.
    """

    def __init__(self, machine: NetworkMachine, pattern: TrafficPattern,
                 window: int, seed: int = 0, read_fraction: float = 0.0,
                 think_ns: float = 0.0, warmup_ns: float = 400.0,
                 measure_ns: float = 1600.0,
                 drain_ns: Optional[float] = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if think_ns < 0:
            raise ValueError("think_ns must be >= 0")
        if warmup_ns < 0 or measure_ns <= 0:
            raise ValueError("warmup must be >= 0 and measure > 0")
        self.machine = machine
        self.pattern = pattern
        self.window = window
        self.seed = seed
        self.read_fraction = read_fraction
        self.think_ns = think_ns
        self.warmup_ns = warmup_ns
        self.measure_ns = measure_ns
        self.drain_ns = (drain_ns if drain_ns is not None
                         else warmup_ns + measure_ns)
        self._inject_end_ns = warmup_ns + measure_ns
        self._driver = ClosedLoopDriver(machine, pattern, seed,
                                        read_fraction=read_fraction)
        self._latencies: List[float] = []
        self._completed_in_window = 0
        self._request_flits_in_window = 0
        # Time-weighted total-outstanding integral over the measure
        # window, for the mean-occupancy report.
        self._occ_integral = 0.0
        self._occ_last = warmup_ns

    def _in_window(self, time_ns: Optional[float]) -> bool:
        return (time_ns is not None
                and self.warmup_ns <= time_ns < self._inject_end_ns)

    def _account_occupancy(self) -> None:
        """Integrate occupancy up to now (clamped to the measure window)."""
        now = min(max(self.machine.sim.now, self.warmup_ns),
                  self._inject_end_ns)
        if now > self._occ_last:
            self._occ_integral += (self._driver.total_outstanding
                                   * (now - self._occ_last))
            self._occ_last = now

    def _issue(self, node: Coord) -> None:
        self._account_occupancy()
        self._driver.issue(node)

    def _on_delivered(self, packet: Packet) -> None:
        if (packet.traffic_class is TrafficClass.REQUEST
                and self._in_window(packet.delivered_ns)):
            self._request_flits_in_window += packet.num_flits
        # Integrate at the pre-completion occupancy level before the
        # driver decrements it.
        self._account_occupancy()
        completed = self._driver.completion(packet)
        if completed is None:
            return
        node, issued_ns = completed
        if self._in_window(issued_ns):
            self._completed_in_window += 1
            self._latencies.append(self.machine.sim.now - issued_ns)
        sim = self.machine.sim
        if sim.now + self.think_ns < self._inject_end_ns:
            if self.think_ns > 0:
                sim.after(self.think_ns, lambda: self._issue(node))
            else:
                self._issue(node)

    def run(self) -> WindowLoopResult:
        machine = self.machine
        sim = machine.sim
        machine.set_delivery_hook(self._on_delivered)
        try:
            for node in self._driver.sources:
                for __ in range(self.window):
                    self._issue(node)
            sim.run(until=self._inject_end_ns + self.drain_ns)
        finally:
            machine.set_delivery_hook(None)

        sources = self._driver.sources
        slice_flits_per_ns = 1.0 / machine.params.flit_serialization_ns
        window_capacity = self.measure_ns * len(sources) * slice_flits_per_ns
        mean_outstanding = (self._occ_integral
                            / (self.measure_ns * len(sources)))
        return WindowLoopResult(
            pattern=self.pattern.name,
            routing=machine.routing.name,
            window=self.window,
            seed=self.seed,
            read_fraction=self.read_fraction,
            think_ns=self.think_ns,
            warmup_ns=self.warmup_ns,
            measure_ns=self.measure_ns,
            drain_ns=self.drain_ns,
            num_nodes=machine.torus.dims.num_nodes,
            num_sources=len(sources),
            completed_transactions=self._completed_in_window,
            accepted_load=self._request_flits_in_window / window_capacity,
            mean_outstanding_per_source=mean_outstanding,
            in_flight_at_end=self._driver.total_outstanding,
            transaction_latencies_ns=self._latencies)
