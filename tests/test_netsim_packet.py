"""Tests for packet formats and VC assignment (Section III-B)."""

import pytest

from repro.netsim import (
    FLIT_BITS,
    HEADER_BITS,
    PAYLOAD_BITS,
    RESPONSE_VC,
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    Packet,
    PacketKind,
    TrafficClass,
    link_vc,
)
from repro.routing import RoutePhase, RoutePlan


def xyz_plan(target=(1, 0, 0)):
    return RoutePlan(policy="test", phases=(
        RoutePhase(target=target, dim_order=(0, 1, 2)),))


def make_packet(**overrides):
    defaults = dict(
        kind=PacketKind.COUNTED_WRITE,
        traffic_class=TrafficClass.REQUEST,
        src_node=(0, 0, 0), dst_node=(1, 0, 0),
        src_core=CoreAddress(0, 0, 0), dst_core=CoreAddress(1, 1, 1),
        route=xyz_plan(),
    )
    defaults.update(overrides)
    return Packet(**defaults)


def make_response():
    return make_packet(traffic_class=TrafficClass.RESPONSE,
                       kind=PacketKind.READ_RESPONSE, route=None)


class TestFlitFormat:
    def test_flit_is_192_bits(self):
        assert FLIT_BITS == 192
        assert HEADER_BITS == 64
        assert PAYLOAD_BITS == 128
        assert HEADER_BITS + PAYLOAD_BITS == FLIT_BITS

    def test_packets_are_one_or_two_flits(self):
        assert make_packet(num_flits=1).bits == 192
        assert make_packet(num_flits=2).bits == 384
        with pytest.raises(ValueError):
            make_packet(num_flits=3)
        with pytest.raises(ValueError):
            make_packet(num_flits=0)


class TestTrafficClasses:
    def test_response_requires_xyz_order(self):
        """The chips route responses XYZ: no plan, no policy."""
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6))
        response = make_packet(traffic_class=TrafficClass.RESPONSE,
                               kind=PacketKind.READ_RESPONSE,
                               dst_node=(1, 1, 1), route=None)
        walk = [machine.chip(coord).next_direction(response)
                for coord in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))]
        assert walk == [(0, 1), (1, 1), (2, 1), None]

    def test_response_xyz_allowed(self):
        packet = make_response()
        assert packet.traffic_class is TrafficClass.RESPONSE
        assert packet.route is None

    def test_request_any_order(self):
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            plan = RoutePlan(policy="test", phases=(
                RoutePhase(target=(1, 0, 0), dim_order=order),))
            assert make_packet(route=plan).route.current.dim_order == order


class TestVcAssignment:
    def test_four_request_vcs(self):
        """VC class (routing phase) x dateline spans the four request VCs."""
        vcs = set()
        for vc_class in (0, 1):
            packet = make_packet()
            packet.route = RoutePlan(policy="test", phases=(
                RoutePhase(target=(0, 0, 0), dim_order=(0, 1, 2)),
                RoutePhase(target=(1, 1, 1), dim_order=(0, 1, 2),
                           vc_class=1)), phase_index=vc_class)
            for dateline in (False, True):
                packet.crossed_dateline = dateline
                vcs.add(link_vc(packet))
        assert vcs == {0, 1, 2, 3}

    def test_dateline_state_drives_default_vc(self):
        packet = make_packet()
        assert link_vc(packet) == 0
        packet.crossed_dateline = True
        assert link_vc(packet) == 1

    def test_response_vc_is_fifth(self):
        assert RESPONSE_VC == 4

    def test_request_vcs_disjoint_from_response(self):
        assert link_vc(make_packet()) != RESPONSE_VC
        assert link_vc(make_response()) == RESPONSE_VC


class TestBookkeeping:
    def test_latency_requires_completion(self):
        packet = make_packet()
        with pytest.raises(RuntimeError):
            __ = packet.latency_ns
        packet.injected_ns = 10.0
        packet.delivered_ns = 65.0
        assert packet.latency_ns == 55.0

    def test_unique_ids(self):
        ids = {make_packet().pid for __ in range(50)}
        assert len(ids) == 50
