"""Tests for the published machine constants (Table I, Sections II-III)."""

import pytest

from repro.config import ASIC_GENERATIONS, DEFAULT_CHIP
from repro.netsim.fabric import INPUT_QUEUE_FLITS
from repro.netsim.packet import (
    ADAPTIVE_VC,
    NUM_LINK_VCS,
    RESPONSE_VC,
    CoreAddress,
    Packet,
    PacketKind,
    TrafficClass,
    link_vc,
)
from repro.netsim.params import LatencyParams
from repro.routing import RoutePhase, RoutePlan


class TestTableOne:
    def test_three_generations(self):
        assert set(ASIC_GENERATIONS) == {"anton1", "anton2", "anton3"}

    def test_anton3_column(self):
        a3 = ASIC_GENERATIONS["anton3"]
        assert a3.power_on_year == 2020
        assert a3.process_nm == 7
        assert a3.clock_ghz == 2.80
        assert a3.max_pairwise_gops == 5914.0
        assert a3.num_serdes == 96
        assert a3.serdes_lane_gbps == 29.0
        assert a3.inter_node_bidir_gbs == 696.0

    def test_compute_scaling_24x(self):
        """The paper's motivation: ~24x compute vs 2.1x bandwidth."""
        a2 = ASIC_GENERATIONS["anton2"]
        a3 = ASIC_GENERATIONS["anton3"]
        compute_ratio = a3.max_pairwise_gops / a2.max_pairwise_gops
        bandwidth_ratio = a3.inter_node_bidir_gbs / a2.inter_node_bidir_gbs
        assert compute_ratio == pytest.approx(23.6, abs=0.2)
        assert bandwidth_ratio == pytest.approx(2.07, abs=0.05)


class TestChipConfig:
    def test_tile_counts(self):
        chip = DEFAULT_CHIP
        assert chip.num_core_routers == 288      # 24 x 12 (Table II)
        assert chip.num_edge_routers == 72       # 2 sides x 12 x 3
        assert chip.num_channel_adapters == 24   # Table II
        assert chip.num_row_adapters == 72       # Table II
        assert chip.num_gcs == 576
        assert chip.num_ppims == 576
        assert chip.num_icbs == 48

    def test_cycle_time(self):
        assert DEFAULT_CHIP.cycle_ns == pytest.approx(1 / 2.8)

    def test_link_vcs_four_requests_below_response(self):
        # 4 request VCs + 1 response VC (Section III-B2); the simulator
        # adds its adaptive VC above them.
        assert (RESPONSE_VC, ADAPTIVE_VC, NUM_LINK_VCS) == (4, 5, 6)
        escape = set()
        for vc_class in (0, 1):
            plan = RoutePlan(policy="test", phases=(RoutePhase(
                target=(1, 0, 0), dim_order=(0, 1, 2), vc_class=vc_class),))
            for dateline in (False, True):
                packet = Packet(PacketKind.COUNTED_WRITE, TrafficClass.REQUEST,
                                (0, 0, 0), (1, 0, 0), CoreAddress(0, 0),
                                CoreAddress(0, 0), route=plan,
                                crossed_dateline=dateline)
                escape.add(link_vc(packet))
        assert escape == set(range(RESPONSE_VC))

    def test_router_pipeline_cycles(self):
        # Section III-B: two cycles per U hop, five per V hop in the
        # Core Router, three per Edge Router hop.
        params = LatencyParams()
        assert (params.core_u_cycles, params.core_v_cycles,
                params.edge_hop_cycles) == (2, 5, 3)

    def test_neighbor_bandwidth(self):
        # 16 lanes x 29 Gb/s = 464 Gb/s per direction per neighbor.
        assert DEFAULT_CHIP.neighbor_bandwidth_gbps == pytest.approx(464.0)

    def test_total_bandwidth_5_6_tbps(self):
        # Section II-B: 96 lanes at 29 Gb/s -> 5.6 Tb/s (bidirectional...
        # counting both directions of each lane).
        chip = DEFAULT_CHIP
        total = chip.serdes_lanes * chip.lane_gbps * 2
        assert total == pytest.approx(5568.0)  # ~5.6 Tb/s

    def test_serialization_time(self):
        chip = DEFAULT_CHIP
        # A 192-bit flit over one 464 Gb/s neighbor channel.
        assert chip.bits_to_channel_ns(192) == pytest.approx(0.4138, abs=1e-3)

    def test_packet_format(self):
        chip = DEFAULT_CHIP
        assert chip.flit_bits == 192
        assert chip.header_bits + chip.payload_bits == chip.flit_bits
        assert chip.max_flits_per_packet == 2
        assert INPUT_QUEUE_FLITS == 8  # per VC

