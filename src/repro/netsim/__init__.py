"""Flit-level simulator of the Anton 3 network (Sections II-III)."""

from .chip import ChipNetwork, GcEndpoint
from .config import MachineConfig
from .core_router import CORE_VC_REQUEST, CORE_VC_RESPONSE, CoreNetwork, CoreRouter
from .edge_router import (
    DIRECTION_ROWS,
    ChannelAdapter,
    EdgeNetwork,
    EdgeRouter,
    EdgeTarget,
    RowAdapter,
)
from .fabric import FabricError, Link, Router
from .machine import NetworkMachine
from .packet import (
    FLIT_BITS,
    HEADER_BITS,
    NUM_LINK_VCS,
    PAYLOAD_BITS,
    RESPONSE_VC,
    CoreAddress,
    Packet,
    PacketKind,
    TrafficClass,
    link_vc,
)
from .params import DEFAULT_PARAMS, LatencyParams
from .pingpong import PingPongHarness, PingPongResult
from .surface import measure_latency_curve, measure_min_one_hop

__all__ = [
    "ChipNetwork",
    "GcEndpoint",
    "CORE_VC_REQUEST",
    "CORE_VC_RESPONSE",
    "CoreNetwork",
    "CoreRouter",
    "DIRECTION_ROWS",
    "ChannelAdapter",
    "EdgeNetwork",
    "EdgeRouter",
    "EdgeTarget",
    "RowAdapter",
    "FabricError",
    "Link",
    "Router",
    "MachineConfig",
    "NetworkMachine",
    "FLIT_BITS",
    "HEADER_BITS",
    "NUM_LINK_VCS",
    "PAYLOAD_BITS",
    "RESPONSE_VC",
    "CoreAddress",
    "Packet",
    "PacketKind",
    "TrafficClass",
    "link_vc",
    "DEFAULT_PARAMS",
    "LatencyParams",
    "PingPongHarness",
    "PingPongResult",
    "measure_latency_curve",
    "measure_min_one_hop",
]
