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

from ..config import ChipConfig
from .packet import ESCAPE_VCS, NUM_LINK_VCS, RESPONSE_VC


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

    # Link VC budget (requests/escape + response + adaptive).  The four
    # escape VCs carry the dateline-disciplined request classes
    # (request_vc == 2 * vc_class + dateline), the response VC is the
    # protocol's second traffic class, and the adaptive VC is the
    # per-hop adaptive layer of repro.routing.escape.  Channel and
    # edge-network links are provisioned with the full set so a packet
    # keeps its VC across the chip; the core network keeps its own
    # two-VC request/response split (Section III-B1).  The escape and
    # response budgets are pinned by the fixed VC ids in
    # repro.netsim.packet (__post_init__ rejects anything the VC map
    # cannot address); only extra adaptive VCs may be provisioned.
    escape_vcs: int = len(ESCAPE_VCS)
    response_vcs: int = 1
    adaptive_vcs: int = 1

    def __post_init__(self) -> None:
        if self.escape_vcs != len(ESCAPE_VCS):
            raise ValueError(
                f"escape_vcs must be {len(ESCAPE_VCS)}: the VC map in "
                "repro.netsim.packet hardwires escape VC ids "
                f"{ESCAPE_VCS}")
        if self.response_vcs != 1:
            raise ValueError(
                "response_vcs must be 1: the VC map hardwires the "
                f"response VC id {RESPONSE_VC}")
        if self.adaptive_vcs < 1:
            raise ValueError(
                "adaptive_vcs must be >= 1: adaptive-escape packets "
                "ride the fixed adaptive VC id "
                f"{NUM_LINK_VCS - 1}")
        # Derived once: the hot paths read these per packet.  Not
        # fields, so equality, hashing and ``replace`` ignore them.
        cycle_ns = 1.0 / self.clock_ghz
        for name, value in (
                ("cycle_ns", cycle_ns),
                ("send_overhead_ns", self.gc_send_overhead_cycles * cycle_ns),
                ("delivery_ns", (self.trtr_cycles + self.sram_write_cycles)
                 * cycle_ns)):
            object.__setattr__(self, name, value)

    # Fence engine (see repro.fence): internal edge-network multicast and
    # merge time added at each torus hop of a fence wavefront, plus the
    # intra-chip fence tree overhead (merge of all GC fence packets).
    fence_internal_ns: float = 18.0
    fence_tree_overhead_ns: float = 12.0

    @property
    def link_vcs(self) -> int:
        """VCs on every channel and edge-network link (escape map +
        response + adaptive); must cover repro.netsim.packet's VC ids."""
        return self.escape_vcs + self.response_vcs + self.adaptive_vcs

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
