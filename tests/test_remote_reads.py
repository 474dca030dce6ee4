"""End-to-end tests of the request/response protocol (Section III-B2).

A remote read sends a request-class packet to a GC's SRAM; the memory
answers with a two-flit response on the single response VC, following a
fixed XYZ dimension order and treating the torus as a mesh (no wraparound
crossing) so one VC suffices for deadlock freedom.
"""

import pytest

from repro.netsim import (
    CORE_VC_REQUEST,
    CORE_VC_RESPONSE,
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PacketKind,
    RESPONSE_VC,
    TrafficClass,
)


@pytest.fixture(scope="module")
def machine():
    return NetworkMachine(config=MachineConfig(
        dims=(3, 2, 2), chip_cols=6, chip_rows=6, seed=31))


def do_read(machine, src_node, dst_node, quad=5, reply=9,
            src_core=None, dst_core=None):
    src_core = src_core or CoreAddress(1, 1, 0)
    dst_core = dst_core or CoreAddress(3, 4, 1)
    target = machine.gc(dst_node, dst_core)
    target.sram.write(quad, [11, 22, 33, 44])
    requester = machine.gc(src_node, src_core)
    requester.sram.reset_counter(reply)
    delivered = []
    machine.set_delivery_hook(delivered.append)
    request = machine.send_remote_read(src_node, src_core, dst_node,
                                       dst_core, quad_addr=quad,
                                       reply_quad=reply)
    machine.sim.run()
    machine.set_delivery_hook(None)
    (response,) = [packet for packet in delivered
                   if packet.kind is PacketKind.READ_RESPONSE]
    return request, requester, response


class TestRemoteRead:
    def test_read_returns_data(self, machine):
        __, requester, __ = do_read(machine, (0, 0, 0), (1, 1, 0))
        assert requester.sram.read(9) == [11, 22, 33, 44]
        assert requester.sram.counter(9) == 1

    def test_response_packet_properties(self, machine):
        __, __, response = do_read(machine, (0, 0, 0), (2, 0, 0), reply=10)
        assert response.kind is PacketKind.READ_RESPONSE
        assert response.traffic_class is TrafficClass.RESPONSE
        assert response.num_flits == 2
        assert response.route is None  # XYZ by the chips, not a plan

    def test_response_never_wraps(self, machine, hop_recorder):
        """Mesh-restricted responses: from (2,*,*) to (0,*,*) the response
        walks through x=1, never using the 2->0 wraparound link."""
        __, __, response = do_read(machine, (0, 0, 0), (2, 1, 1), reply=11)
        mid_id = machine.torus.node_id((1, 1, 1))
        # Hops must include the intermediate x=1 column of the mesh walk.
        assert any(f"@n{mid_id}" in hop for hop in hop_recorder.hops(response))
        # A torus-minimal route would be 1 X-hop; the mesh route takes 2.
        x_hops = response.torus_hops_taken
        assert x_hops >= machine.torus.min_hops((2, 1, 1), (0, 0, 0))

    def test_core_network_splits_requests_and_responses(self, machine,
                                                        hop_recorder):
        """Section III-B1's two core VCs: every core-router arrival of a
        request rides the request VC, of a response the response VC —
        from the injecting TRTR, the Row Adapter and every mesh hop."""
        request, __, response = do_read(machine, (0, 0, 0), (1, 1, 0),
                                        reply=15)
        for packet, vc in ((request, CORE_VC_REQUEST),
                           (response, CORE_VC_RESPONSE)):
            core = [(hop, arrival) for hop, arrival
                    in hop_recorder.arrivals(packet)
                    if hop.startswith("core(")]
            ports = {hop[hop.index("[") + 1:-1] for hop, __ in core}
            assert {"inject", "RA"} <= ports and len(ports) >= 3
            assert all(arrival == vc for __, arrival in core), core

    def test_response_uses_response_vc_on_channels(self, machine):
        before = machine.channel_vc_packets()
        request, __, response = do_read(machine, (0, 0, 0), (1, 0, 0),
                                        reply=12)
        carried = [after - prior for after, prior
                   in zip(machine.channel_vc_packets(), before)]
        assert carried[RESPONSE_VC] == response.torus_hops_taken == 1
        assert sum(carried) == (request.torus_hops_taken
                                + response.torus_hops_taken)

    def test_blocking_read_completes_on_response(self, machine):
        src_node, dst_node = (0, 0, 0), (1, 1, 1)
        src_core, dst_core = CoreAddress(0, 0, 0), CoreAddress(5, 5, 1)
        target = machine.gc(dst_node, dst_core)
        target.sram.write(3, [7, 7, 7, 7])
        requester = machine.gc(src_node, src_core)
        requester.sram.reset_counter(4)
        done = []
        requester.read_port.issue(4, 1, lambda r: done.append(r))
        machine.send_remote_read(src_node, src_core, dst_node, dst_core,
                                 quad_addr=3, reply_quad=4)
        machine.sim.run()
        assert len(done) == 1
        assert done[0].words == [7, 7, 7, 7]
        assert done[0].stall_ns > 0

    def test_round_trip_latency_reasonable(self, machine):
        request, __, response = do_read(machine, (0, 0, 0), (1, 0, 0),
                                        reply=13)
        round_trip = response.delivered_ns - request.injected_ns
        # Two one-hop traversals plus memory service: 100-250 ns scale.
        assert 80.0 < round_trip < 300.0

    def test_intra_node_read(self, machine, hop_recorder):
        """Reads within a node never touch the edge network."""
        __, __, response = do_read(machine, (0, 0, 0), (0, 0, 0), reply=14,
                                   src_core=CoreAddress(0, 0, 0),
                                   dst_core=CoreAddress(4, 4, 0))
        assert response.torus_hops_taken == 0
        assert not any("ertr" in hop for hop in hop_recorder.hops(response))
