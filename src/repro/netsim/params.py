"""Latency parameters for the flit-level network simulator.

All cycle counts come directly from Section III of the paper (Core Router:
two cycles per U hop, five per V hop; Edge Router: three cycles per hop).
The analog quantities (SERDES latency, wire flight time) are not published
individually, so they are calibrated such that the simulator reproduces
the paper's three published end-to-end anchors:

* minimum one-hop end-to-end latency  ~= 55 ns      (Fig. 6)
* average per-hop latency             ~= 34.2 ns    (Fig. 5 fit)
* average fixed overhead              ~= 55.9 ns    (Fig. 5 fit)

``tests/test_pingpong.py`` asserts the calibrated model stays within a few
percent of all three anchors.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyParams:
    """Tunable latency model shared by the netsim and the analytic model.

    Three delays are derived once per instance, bit-identical to
    ``cycles(...)``: ``cycle_ns``, ``send_overhead_ns`` (a GC's issue
    overhead before TRTR injection) and ``delivery_ns`` (TRTR ejection
    plus the SRAM commit).
    """

    clock_ghz: float = 2.80

    # Endpoint overheads (cycles).
    gc_send_overhead_cycles: int = 10    # software issue to first flit out
    trtr_cycles: int = 2                 # TRTR sub-router traversal
    sram_write_cycles: int = 3           # counted write commit + counter bump
    unstall_cycles: int = 8              # blocking-read release to use

    # On-chip network (cycles) — published values.
    core_u_cycles: int = 2
    core_v_cycles: int = 5
    edge_hop_cycles: int = 3
    ra_cycles: int = 2

    # Channel Adapter (cycles): frame pack/unpack, pcache lookup, INZ.
    ca_tx_cycles: int = 4
    ca_rx_cycles: int = 4

    # Off-chip channel (nanoseconds) — calibrated analog path.
    serdes_tx_ns: float = 8.5
    serdes_rx_ns: float = 8.5
    wire_ns: float = 8.0

    # Channel slice: 8 of the 16 lanes toward a neighbor.
    slice_gbps: float = 8 * 29.0

    def __post_init__(self) -> None:
        # Derived once: the hot paths read these per packet.  Not
        # fields, so equality, hashing and ``replace`` ignore them.
        cycle_ns = 1.0 / self.clock_ghz
        for name, value in (
                ("cycle_ns", cycle_ns),
                ("send_overhead_ns", self.gc_send_overhead_cycles * cycle_ns),
                ("delivery_ns", (self.trtr_cycles + self.sram_write_cycles)
                 * cycle_ns)):
            object.__setattr__(self, name, value)

    def cycles(self, n: int) -> float:
        return n * self.cycle_ns

    @property
    def flit_serialization_ns(self) -> float:
        """One 192-bit flit over one 232 Gb/s channel slice."""
        return 192.0 / self.slice_gbps

    @property
    def channel_hop_ns(self) -> float:
        """Pure channel time: SERDES out, wire, SERDES in (per flit extra
        serialization charged separately)."""
        return self.serdes_tx_ns + self.wire_ns + self.serdes_rx_ns


DEFAULT_PARAMS = LatencyParams()
