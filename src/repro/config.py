"""Machine constants for the Anton 3 network model.

Every number in this module is taken from, or derived from, the HPCA 2022
paper "The Specialized High-Performance Network on Anton 3".  Table I of the
paper is reproduced verbatim in :data:`ASIC_GENERATIONS`; the remaining
constants come from the architecture description in Sections II-V.

The values are grouped into small frozen dataclasses so that simulations can
be parameterized (e.g. for ablation studies) while the defaults always
describe the machine as published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# ---------------------------------------------------------------------------
# Table I: key features for the three Anton ASICs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsicGeneration:
    """One column of Table I in the paper."""

    name: str
    power_on_year: int
    process_nm: int
    die_size_mm2: float
    clock_ghz: float
    max_pairwise_gops: float
    num_serdes: int
    serdes_lane_gbps: float
    inter_node_bidir_gbs: float


ASIC_GENERATIONS: Dict[str, AsicGeneration] = {
    "anton1": AsicGeneration(
        name="Anton 1",
        power_on_year=2008,
        process_nm=90,
        die_size_mm2=305.0,
        clock_ghz=0.970,
        max_pairwise_gops=31.0,
        num_serdes=66,
        serdes_lane_gbps=4.6,
        inter_node_bidir_gbs=76.0,
    ),
    "anton2": AsicGeneration(
        name="Anton 2",
        power_on_year=2013,
        process_nm=40,
        die_size_mm2=408.0,
        clock_ghz=1.65,
        max_pairwise_gops=251.0,
        num_serdes=96,
        serdes_lane_gbps=14.0,
        inter_node_bidir_gbs=336.0,
    ),
    "anton3": AsicGeneration(
        name="Anton 3",
        power_on_year=2020,
        process_nm=7,
        die_size_mm2=451.0,
        clock_ghz=2.80,
        max_pairwise_gops=5914.0,
        num_serdes=96,
        serdes_lane_gbps=29.0,
        inter_node_bidir_gbs=696.0,
    ),
}


# ---------------------------------------------------------------------------
# Anton 3 chip geometry and network parameters (Sections II-III).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChipConfig:
    """Physical layout and network parameters of one Anton 3 ASIC."""

    clock_ghz: float = 2.80
    core_tile_rows: int = 12
    core_tile_cols: int = 24
    edge_tile_rows: int = 12          # per side (left and right)
    edge_router_cols: int = 3         # Edge Routers per Edge Tile
    gcs_per_core_tile: int = 2
    ppims_per_core_tile: int = 2
    icbs_per_edge_tile: int = 2
    serdes_lanes: int = 96
    lane_gbps: float = 29.0
    lanes_per_neighbor: int = 16      # 96 lanes / 6 torus neighbors
    channel_slices_per_neighbor: int = 2

    # Packet format (Section III-B).
    flit_bits: int = 192
    header_bits: int = 64
    payload_bits: int = 128
    max_flits_per_packet: int = 2

    # Fence hardware limits (Section V-D).
    max_concurrent_fences: int = 14
    fence_counters_per_edge_input: int = 96

    # Particle cache organisation (Section IV-B).
    pcache_entries: int = 1024
    pcache_ways: int = 4
    pcache_delta_bits: int = 12       # D1/D2 storage per coordinate

    @property
    def cycle_ns(self) -> float:
        """Duration of one core clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    @property
    def num_gcs(self) -> int:
        return self.core_tile_rows * self.core_tile_cols * self.gcs_per_core_tile

    @property
    def num_ppims(self) -> int:
        return self.core_tile_rows * self.core_tile_cols * self.ppims_per_core_tile

    @property
    def num_icbs(self) -> int:
        return 2 * self.edge_tile_rows * self.icbs_per_edge_tile

    @property
    def num_core_routers(self) -> int:
        return self.core_tile_rows * self.core_tile_cols

    @property
    def num_edge_routers(self) -> int:
        return 2 * self.edge_tile_rows * self.edge_router_cols

    @property
    def num_channel_adapters(self) -> int:
        # 24 Channel Adapters (Table II): 96 lanes / 4 lanes each, equiv.
        # one CA per Edge Tile.
        return 2 * self.edge_tile_rows

    @property
    def num_row_adapters(self) -> int:
        # Table II lists 72 Row Adapters: one per Edge Router row position
        # (ICB RAs plus Core Network RAs).
        return 72

    @property
    def neighbor_bandwidth_gbps(self) -> float:
        """Unidirectional bandwidth toward one torus neighbor (Gb/s)."""
        return self.lanes_per_neighbor * self.lane_gbps

    def bits_to_channel_ns(self, bits: float) -> float:
        """Serialization time of ``bits`` over one neighbor channel."""
        return bits / self.neighbor_bandwidth_gbps


DEFAULT_CHIP = ChipConfig()

# Published headline measurements used as reproduction targets.
PAPER_MIN_ONE_HOP_LATENCY_NS = 55.0
PAPER_LATENCY_FIXED_NS = 55.9
PAPER_LATENCY_PER_HOP_NS = 34.2
PAPER_FENCE_ZERO_HOP_NS = 51.5
PAPER_FENCE_FIXED_NS = 91.2
PAPER_FENCE_PER_HOP_NS = 51.8
PAPER_FENCE_GLOBAL_128_NS = 504.0
PAPER_INZ_REDUCTION_RANGE = (0.32, 0.40)
PAPER_INZ_PCACHE_REDUCTION_RANGE = (0.45, 0.62)
PAPER_APP_SPEEDUP_RANGE = (1.18, 1.62)
PAPER_TIMESTEP_UNCOMPRESSED_NS = 2000.0
PAPER_TIMESTEP_COMPRESSED_NS = 900.0
