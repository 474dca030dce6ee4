"""End-to-end routing tests on small machines.

These use reduced chips (6x6 tiles) so the full machine builds quickly;
routing logic is identical to the full-size 24x12 configuration.
"""

import pytest

from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PacketKind,
    TrafficClass,
)
from repro.netsim.packet import Packet
from repro.routing import RoutePhase, RoutePlan


@pytest.fixture(scope="module")
def machine():
    return NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=7))


def run_write(machine, src_node, src_core, dst_node, dst_core, words=(1, 2, 3, 4),
              quad=5):
    packet = machine.send_counted_write(src_node, src_core, dst_node,
                                        dst_core, quad_addr=quad,
                                        words=words)
    machine.sim.run()
    return packet


class TestIntraNodeDelivery:
    def test_same_tile_gc_to_gc(self, machine):
        src = CoreAddress(2, 3, 0)
        dst = CoreAddress(2, 3, 1)
        packet = run_write(machine, (0, 0, 0), src, (0, 0, 0), dst)
        gc = machine.gc((0, 0, 0), dst)
        assert packet.delivered_ns is not None
        assert gc.sram.read(5) == [1, 2, 3, 4]
        assert gc.sram.counter(5) == 1
        assert packet.torus_hops_taken == 0

    def test_cross_tile_uses_u_then_v(self, machine, hop_recorder):
        src = CoreAddress(0, 0, 0)
        dst = CoreAddress(3, 4, 0)
        packet = run_write(machine, (0, 0, 0), src, (0, 0, 0), dst,
                           quad=6)
        # Hop log: all U moves must precede all V moves (U->V DOR).
        core_hops = [h for h in hop_recorder.hops(packet) if h.startswith("core")]
        vs = [h.split(",")[1].split(")")[0] for h in core_hops]
        v_changed = False
        for a, b in zip(vs, vs[1:]):
            if a != b:
                v_changed = True
            elif v_changed:
                pytest.fail(f"U move after V move: {core_hops}")

    def test_intra_node_avoids_edge_network(self, machine, hop_recorder):
        packet = run_write(machine, (0, 0, 0), CoreAddress(1, 1, 0),
                           (0, 0, 0), CoreAddress(4, 4, 1), quad=7)
        assert not any("ertr" in h for h in hop_recorder.hops(packet))
        assert not any("ca" in h for h in hop_recorder.hops(packet))


class TestInterNodeDelivery:
    def test_neighbor_delivery(self, machine, hop_recorder):
        packet = run_write(machine, (0, 0, 0), CoreAddress(0, 2, 0),
                           (1, 0, 0), CoreAddress(5, 1, 1), quad=9)
        gc = machine.gc((1, 0, 0), CoreAddress(5, 1, 1))
        assert gc.sram.read(9) == [1, 2, 3, 4]
        assert packet.torus_hops_taken == 1
        assert any("ertr" in h for h in hop_recorder.hops(packet))

    def test_multi_hop_counts(self, machine):
        packet = run_write(machine, (0, 0, 0), CoreAddress(0, 0, 0),
                           (1, 1, 1), CoreAddress(0, 0, 0), quad=11)
        assert packet.torus_hops_taken == 3
        assert packet.delivered_ns is not None

    def test_outgoing_travels_u_only_in_core(self, machine, hop_recorder):
        """Remote packets cross the core network along U only."""
        packet = run_write(machine, (0, 0, 0), CoreAddress(3, 2, 0),
                           (0, 1, 0), CoreAddress(2, 4, 0), quad=12)
        src_side = []
        for hop in hop_recorder.hops(packet):
            if hop.startswith("core") and "@n0" in hop:
                src_side.append(hop)
        rows = {h.split(",")[1].split(")")[0] for h in src_side}
        assert len(rows) == 1  # row never changes before the edge

    def test_all_gc_pairs_reachable_between_two_nodes(self, machine):
        for u in range(0, 6, 2):
            for v in range(0, 6, 3):
                src = CoreAddress(u, v, 0)
                dst = CoreAddress(5 - u, 5 - v, 1)
                packet = run_write(machine, (0, 0, 0), src, (1, 1, 0), dst,
                                   quad=u * 8 + v)
                assert packet.delivered_ns is not None


class TestObliviousRouting:
    def test_dimension_orders_vary(self, machine):
        orders = set()
        for __ in range(24):
            packet = machine.make_request(
                PacketKind.COUNTED_WRITE, (0, 0, 0), CoreAddress(0, 0, 0),
                (1, 1, 1), CoreAddress(0, 0, 0))
            orders.add(packet.route.phases[0].dim_order)
        assert len(orders) >= 4  # randomized among the six orders

    def test_slices_vary(self, machine):
        slices = {machine.make_request(
            PacketKind.COUNTED_WRITE, (0, 0, 0), CoreAddress(0, 0, 0),
            (1, 0, 0), CoreAddress(0, 0, 0)).slice_index
            for __ in range(16)}
        assert slices == {0, 1}

    def test_deterministic_given_seed(self, hop_recorder):
        def run_once():
            m = NetworkMachine(config=MachineConfig(
                dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=3))
            p = m.send_counted_write((0, 0, 0), CoreAddress(1, 1, 0),
                                     (1, 1, 0), CoreAddress(2, 2, 0))
            m.sim.run()
            return p.delivered_ns, tuple(hop_recorder.hops(p))
        assert run_once() == run_once()


class TestEdgeNetworkPolicy:
    def test_through_traffic_uses_outer_column(self, hop_recorder):
        """Intra-dimensional through packets only touch column 2 at the
        intermediate node (Figure 4, blue route)."""
        machine = NetworkMachine(config=MachineConfig(
            dims=(4, 2, 2), chip_cols=6, chip_rows=6, seed=11))
        # 2 hops along +X: node (1,0,0) is a pure through node.
        packet = machine.send_counted_write(
            (0, 0, 0), CoreAddress(0, 0, 0), (2, 0, 0), CoreAddress(0, 0, 0))
        machine.sim.run()
        mid_id = machine.torus.node_id((1, 0, 0))
        mid_hops = [h for h in hop_recorder.hops(packet)
                    if f"@n{mid_id}" in h and "ertr" in h]
        assert mid_hops, "expected edge-router hops at the through node"
        for hop in mid_hops:
            col = int(hop.split("(")[1].split(",")[0])
            assert col == 2, f"through traffic left the outer column: {hop}"

    def test_turning_traffic_uses_inner_columns(self, hop_recorder):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=13))
        # Find a packet that turns (X then Y) at the intermediate node.
        for attempt in range(40):
            packet = machine.make_request(
                PacketKind.COUNTED_WRITE, (0, 0, 0), CoreAddress(0, 0, 0),
                (1, 1, 0), CoreAddress(0, 0, 0))
            order = packet.route.phases[0].dim_order
            if order[0] in (0, 1):
                break
        machine.chip((0, 0, 0)).send(packet)
        machine.sim.run()
        assert packet.delivered_ns is not None
        # The turn node saw at least one inner-column hop.
        first_axis = order[0] if order[0] != 2 else None
        mid = (1, 0, 0) if first_axis == 0 else (0, 1, 0)
        mid_id = machine.torus.node_id(mid)
        mid_cols = [int(h.split("(")[1].split(",")[0])
                    for h in hop_recorder.hops(packet)
                    if f"@n{mid_id}" in h and "ertr" in h]
        if mid_cols:  # the packet turned at this node
            assert any(col in (0, 1) for col in mid_cols)


class TestChannelAccounting:
    def test_channel_flits_counted(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=5))
        before = machine.total_channel_flits()
        machine.send_counted_write((0, 0, 0), CoreAddress(0, 0, 0),
                                   (1, 0, 0), CoreAddress(0, 0, 0))
        machine.sim.run()
        assert machine.total_channel_flits() == before + 1


class TestHopPlanners:
    """The chip's planners decide a packet's link VC once per torus hop."""

    def test_valiant_intermediate_at_destination_rides_class_one(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=7,
            routing="valiant"))
        src, dst = (1, 0, 0), (0, 0, 0)
        plan = RoutePlan(policy="valiant", phases=(
            RoutePhase(target=dst, dim_order=(0, 1, 2), vc_class=0),
            RoutePhase(target=dst, dim_order=(0, 1, 2), vc_class=1)))
        packet = Packet(kind=PacketKind.COUNTED_WRITE,
                        traffic_class=TrafficClass.REQUEST,
                        src_node=src, dst_node=dst,
                        src_core=CoreAddress(0, 0, 0),
                        dst_core=CoreAddress(1, 1, 0), route=plan)
        machine.chip(src)._plan_egress(packet)
        # X+ from x=1 wraps to x=0: class 0 on its dateline VC.
        assert packet.edge_target.exit_port == "CA:X+"
        assert packet.edge_vc == 1
        disposition = machine.chip(dst)._plan_ingress(packet, (0, -1))
        assert disposition == "edge" and packet.edge_target.exit_port == "RA"
        # The intermediate is the destination: the last node advances the
        # plan to its class-1 phase, with a fresh dateline.
        assert plan.phase_index == 1
        assert packet.edge_vc == 2
