"""Routing-subsystem invariants (repro.routing).

Offline route traces (no simulator) pin the structural guarantees every
policy must keep — cycle-free routes of the expected length, the
dateline/VC discipline on wrap links — and end-to-end machine runs pin
the integration invariants: delivery under every policy, and responses
forced to mesh-restricted XYZ regardless of the request policy.
"""

import random

import pytest

from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PacketKind,
    TrafficClass,
)
from repro.netsim.packet import ADAPTIVE_VC, Packet, link_vc
from repro.routing import (
    DEFAULT_POLICY,
    POLICY_NAMES,
    AdaptiveEscapePolicy,
    RoutePhase,
    RoutePlan,
    RoutingPolicy,
    make_policy,
    next_request_direction,
    source_vc_class,
    trace_route,
)
from repro.topology.torus import Torus3D

DIMS = (4, 3, 2)


def request_packet(src, dst, plan):
    return Packet(
        kind=PacketKind.COUNTED_WRITE, traffic_class=TrafficClass.REQUEST,
        src_node=src, dst_node=dst, src_core=CoreAddress(0, 0, 0),
        dst_core=CoreAddress(0, 0, 0), route=plan)


def trace(policy, torus, src, dst, rng, source=None):
    plan = policy.make_plan(src, dst, rng, source=source)
    hops, final = trace_route(request_packet(src, dst, plan), torus)
    return plan, hops, final


@pytest.fixture(scope="module")
def torus():
    return Torus3D(DIMS)


class TestRegistry:
    def test_all_policies_construct(self, torus):
        assert POLICY_NAMES == ("adaptive-escape", "fixed-xyz",
                                "randomized-minimal", "valiant")
        for name in POLICY_NAMES:
            policy = make_policy(name, torus)
            assert isinstance(policy, RoutingPolicy)
            assert policy.name == name

    def test_unknown_policy_raises(self, torus):
        with pytest.raises(KeyError, match="unknown routing policy"):
            make_policy("typo-policy", torus)

    def test_default_is_the_papers_scheme(self):
        assert DEFAULT_POLICY == "randomized-minimal"


class TestRouteShape:
    """Every policy: cycle-free routes of the expected length."""

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_terminates_at_destination_without_cycles(self, torus, name):
        policy = make_policy(name, torus)
        rng = random.Random(7)
        for src in torus.nodes():
            for dst in torus.nodes():
                plan, hops, final = trace(policy, torus, src, dst, rng)
                assert final == torus.normalize(dst)
                # Cycle-free: a (node, phase) pair never repeats.
                visited = [(hop.coord, hop.phase) for hop in hops]
                assert len(visited) == len(set(visited))

    @pytest.mark.parametrize("name",
                             ["fixed-xyz", "randomized-minimal",
                              "adaptive-escape"])
    def test_minimal_policies_take_minimal_routes(self, torus, name):
        policy = make_policy(name, torus)
        rng = random.Random(11)
        for src in torus.nodes():
            for dst in torus.nodes():
                __, hops, __unused = trace(policy, torus, src, dst, rng)
                # Exactly the sum of per-axis wrap distances, never more.
                assert len(hops) == torus.min_hops(src, dst)

    def test_valiant_is_two_minimal_phases(self, torus):
        policy = make_policy("valiant", torus)
        rng = random.Random(13)
        for src in torus.nodes():
            for dst in torus.nodes():
                plan, hops, __ = trace(policy, torus, src, dst, rng)
                mid = plan.phases[0].target
                expected = (torus.min_hops(src, mid)
                            + torus.min_hops(mid, dst))
                assert len(hops) == expected
                # Phase hops ride their own VC classes: 0/1 then 2/3.
                for hop in hops:
                    assert hop.vc in ((0, 1) if hop.phase == 0 else (2, 3))


class TestVcDiscipline:
    """Dateline/VC rules on wrap links, traced hop by hop."""

    def test_wrap_hop_switches_to_dateline_vc(self):
        ring = Torus3D((5, 1, 1))
        policy = make_policy("fixed-xyz", ring)
        # (3,0,0) -> (0,0,0) is +2: the second hop (4 -> 0) wraps.
        __, hops, __unused = trace(policy, ring, (3, 0, 0), (0, 0, 0),
                                   random.Random(1))
        assert [hop.direction for hop in hops] == [(0, 1), (0, 1)]
        assert [hop.vc for hop in hops] == [0, 1]

    def test_post_wrap_hops_stay_on_dateline_vc(self):
        ring = Torus3D((7, 1, 1))
        policy = make_policy("fixed-xyz", ring)
        # (5,0,0) -> (1,0,0) is +3: wrap on the 6 -> 0 hop, then onward.
        __, hops, __unused = trace(policy, ring, (5, 0, 0), (1, 0, 0),
                                   random.Random(1))
        assert [hop.vc for hop in hops] == [0, 1, 1]

    def test_axis_change_resets_the_dateline(self):
        torus = Torus3D((4, 4, 1))
        policy = make_policy("fixed-xyz", torus)
        # X leg (3 -> 0 -> 1) wraps immediately; the Y leg (1 -> 2) is a
        # fresh ring, so its hop drops back to the non-dateline VC.
        __, hops, __unused = trace(policy, torus, (3, 1, 0), (1, 2, 0),
                                   random.Random(1))
        assert [hop.vc for hop in hops] == [1, 1, 0]

    def test_source_vc_class_spreads_but_stays_per_source(self):
        classes = {source_vc_class(CoreAddress(u, v, w))
                   for u in range(4) for v in range(4) for w in (0, 1)}
        assert classes == {0, 1}
        address = CoreAddress(2, 3, 1)
        assert (source_vc_class(address)
                == source_vc_class(CoreAddress(2, 3, 1)))
        assert source_vc_class(None) == 0

    def test_single_phase_plans_follow_dim_order_minimally(self, torus):
        plan = RoutePlan(policy="test", phases=(
            RoutePhase(target=(1, 1, 1), dim_order=(2, 0, 1)),))
        packet = request_packet((0, 0, 0), (1, 1, 1), plan)
        hops, final = trace_route(packet, torus)
        assert final == (1, 1, 1)
        assert [hop.direction[0] for hop in hops] == [2, 0, 1]
        assert [hop.vc for hop in hops] == [0, 0, 0]  # class 0, no wraps

    def test_cycle_detection_guards_bad_plans(self, torus):
        # A plan whose phase target is unreachable minimally can't exist,
        # but a corrupted dim_order is caught by the walker's hop limit.
        plan = RoutePlan(policy="test", phases=(
            RoutePhase(target=(1, 0, 0), dim_order=(0, 1, 2)),))
        packet = request_packet((0, 0, 0), (1, 0, 0), plan)
        hops, final = trace_route(packet, torus)
        assert final == (1, 0, 0) and len(hops) == 1


def free_probe(coord, direction):
    """Every adaptive VC has full credit and an empty queue."""
    return (8, 0)


def blocked_probe(coord, direction):
    """No adaptive VC anywhere has credit: everything escapes."""
    return (0, 0)


class TestAdaptiveEscape:
    """Per-hop adaptivity, misroute budget, and the escape fallback."""

    def plan(self, torus, src, dst, max_misroutes=4):
        policy = AdaptiveEscapePolicy(torus, max_misroutes=max_misroutes)
        return policy.make_plan(src, dst, random.Random(1))

    def test_plan_is_adaptive_with_xyz_escape_order(self, torus):
        plan = self.plan(torus, (0, 0, 0), (1, 1, 1))
        assert plan.adaptive
        assert plan.max_misroutes == 4
        assert plan.phases[0].dim_order == (0, 1, 2)

    def test_uncongested_hops_win_the_adaptive_vc(self, torus):
        packet = request_packet((0, 0, 0), (1, 1, 1),
                                self.plan(torus, (0, 0, 0), (1, 1, 1)))
        direction = next_request_direction(packet, (0, 0, 0), torus,
                                           probe=free_probe)
        assert direction in [(0, 1), (1, 1), (2, 1)]
        assert not packet.on_escape
        assert link_vc(packet) == ADAPTIVE_VC

    def test_avoids_the_congested_productive_direction(self, torus):
        def x_blocked(coord, direction):
            return (0, 0) if direction[0] == 0 else (8, 0)

        packet = request_packet((0, 0, 0), (1, 1, 1),
                                self.plan(torus, (0, 0, 0), (1, 1, 1)))
        rng = random.Random(2)
        chosen = set()
        for __ in range(20):
            direction = next_request_direction(packet, (0, 0, 0), torus,
                                               probe=x_blocked, rng=rng)
            assert direction[0] != 0
            assert not packet.on_escape
            chosen.add(direction)
        # The tie really is broken over every free candidate, not
        # pinned to whichever one the first draw happened to pick.  On
        # the 2-node Z ring the offset is a half-ring tie, so both Z
        # rotations are productive alongside +Y.
        assert chosen == {(1, 1), (2, 1), (2, -1)}

    def test_half_ring_tie_makes_both_rotations_productive(self):
        ring = Torus3D((8, 1, 1))
        # dst is exactly half way: +X congested, so -X (equally minimal)
        # must win — the per-hop load balance tornado traffic needs.
        def plus_x_blocked(coord, direction):
            return (0, 0) if direction == (0, 1) else (8, 0)

        packet = request_packet((0, 0, 0), (4, 0, 0),
                                self.plan(ring, (0, 0, 0), (4, 0, 0)))
        direction = next_request_direction(packet, (0, 0, 0), ring,
                                           probe=plus_x_blocked)
        assert direction == (0, -1)
        assert not packet.on_escape

    def test_blocked_adaptive_vcs_fall_back_to_escape_dor(self, torus):
        packet = request_packet((0, 0, 0), (1, 1, 1),
                                self.plan(torus, (0, 0, 0), (1, 1, 1)))
        hops, final = trace_route(packet, torus, probe=blocked_probe)
        assert final == (1, 1, 1)
        assert [hop.direction[0] for hop in hops] == [0, 1, 2]  # escape XYZ
        assert packet.on_escape
        assert packet.misroutes == 0
        assert all(hop.vc in (0, 1, 2, 3) for hop in hops)

    def test_probe_less_walks_are_escape_minimal(self, torus):
        packet = request_packet((2, 1, 0), (0, 2, 1),
                                self.plan(torus, (2, 1, 0), (0, 2, 1)))
        hops, final = trace_route(packet, torus)
        assert final == (0, 2, 1)
        assert len(hops) == torus.min_hops((2, 1, 0), (0, 2, 1))

    def test_misroute_spends_budget_on_a_nonminimal_hop(self):
        torus = Torus3D((5, 5, 1))
        # Productive (+X) blocked, the -X detour free: the packet pays
        # one budget unit to step away from its minimal path.
        def productive_blocked(coord, direction):
            offsets = torus.offsets(coord, (2, 0, 0))
            axis, sign = direction
            productive = offsets[axis] and (
                (offsets[axis] > 0) == (sign > 0))
            return (0, 0) if productive else (8, 0)

        packet = request_packet((1, 0, 0), (2, 0, 0),
                                self.plan(torus, (1, 0, 0), (2, 0, 0)))
        direction = next_request_direction(packet, (1, 0, 0), torus,
                                           probe=productive_blocked,
                                           rng=random.Random(3))
        assert direction == (0, -1)
        assert packet.misroutes == 1
        assert not packet.on_escape

    def test_misroutes_never_cross_the_dateline(self):
        ring = Torus3D((5, 1, 1))
        # At x=0 the only detour (-X) is the wrap link; with +X blocked
        # the packet must escape instead of misrouting across it.
        def plus_x_blocked(coord, direction):
            return (0, 0) if direction == (0, 1) else (8, 0)

        packet = request_packet((0, 0, 0), (2, 0, 0),
                                self.plan(ring, (0, 0, 0), (2, 0, 0)))
        direction = next_request_direction(packet, (0, 0, 0), ring,
                                           probe=plus_x_blocked)
        assert direction == (0, 1)
        assert packet.on_escape
        assert packet.misroutes == 0

    def test_capped_misrouting_terminates(self):
        torus = Torus3D((5, 5, 1))
        # Adversarial probe: productive always blocked, detours always
        # free — the walk ping-pongs on misroutes until the budget runs
        # out, then the escape layer carries it home.
        def adversarial(coord, direction):
            offsets = torus.offsets(coord, (2, 1, 0))
            axis, sign = direction
            productive = offsets[axis] and (
                (offsets[axis] > 0) == (sign > 0))
            return (0, 0) if productive else (8, 0)

        packet = request_packet((0, 0, 0), (2, 1, 0),
                                self.plan(torus, (0, 0, 0), (2, 1, 0)))
        hops, final = trace_route(packet, torus, probe=adversarial,
                                  rng=random.Random(5))
        assert final == (2, 1, 0)
        assert packet.misroutes == 4  # full budget spent
        assert len(hops) <= torus.min_hops((0, 0, 0), (2, 1, 0)) + 2 * 4

    def test_uncapped_misrouting_livelocks(self):
        torus = Torus3D((5, 5, 1))

        def adversarial(coord, direction):
            offsets = torus.offsets(coord, (2, 1, 0))
            axis, sign = direction
            productive = offsets[axis] and (
                (offsets[axis] > 0) == (sign > 0))
            return (0, 0) if productive else (8, 0)

        packet = request_packet(
            (0, 0, 0), (2, 1, 0),
            self.plan(torus, (0, 0, 0), (2, 1, 0), max_misroutes=None))
        with pytest.raises(RuntimeError, match="did not terminate"):
            trace_route(packet, torus, probe=adversarial,
                        rng=random.Random(5))

    def test_machine_exposes_adaptive_vc_state(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 1, 1), chip_cols=6, chip_rows=6, seed=3,
            routing="adaptive-escape"))
        chip = machine.chip((0, 0, 0))
        credits, queued = chip.adaptive_vc_state((0, 1), 0)
        assert credits == 8 and queued == 0

    def test_light_traffic_rides_the_adaptive_vc_only(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(3, 2, 2), chip_cols=6, chip_rows=6, seed=9,
            routing="adaptive-escape"))
        machine.send_counted_write((0, 0, 0), CoreAddress(0, 0, 0),
                                   (2, 1, 1), CoreAddress(1, 1, 0))
        machine.sim.run()
        by_vc = machine.channel_vc_packets()
        assert by_vc[ADAPTIVE_VC] > 0
        assert sum(by_vc[vc] for vc in (0, 1, 2, 3)) == 0

    def test_wrap_storm_engages_the_escape_layer_and_drains(self):
        # A burst far beyond the adaptive VC's eight-flit credit pool on
        # a wrap-heavy ring: some hops must fall back to the dateline
        # escape VCs, and everything still drains (Duato's argument,
        # observed end to end).
        machine = NetworkMachine(config=MachineConfig(
            dims=(5, 1, 1), chip_cols=6, chip_rows=6, seed=21,
            routing="adaptive-escape"))
        packets = []
        for x in range(5):
            for i in range(40):
                packets.append(machine.send_counted_write(
                    (x, 0, 0), CoreAddress(x, 1, 0),
                    ((x + 2) % 5, 0, 0), CoreAddress(0, 0, 0),
                    quad_addr=i % 8))
        machine.sim.run()
        assert all(p.delivered_ns is not None for p in packets)
        by_vc = machine.channel_vc_packets()
        assert by_vc[ADAPTIVE_VC] > 0
        assert sum(by_vc[vc] for vc in (0, 1, 2, 3)) > 0


class TestMachineIntegration:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_counted_writes_deliver_under_every_policy(self, name):
        machine = NetworkMachine(config=MachineConfig(
            dims=(3, 2, 2), chip_cols=6, chip_rows=6, seed=9, routing=name))
        for dst_node in [(1, 0, 0), (2, 1, 1), (0, 1, 1)]:
            packet = machine.send_counted_write(
                (0, 0, 0), CoreAddress(0, 0, 0), dst_node,
                CoreAddress(2, 2, 0), quad_addr=4, words=(1, 2, 3, 4))
            machine.sim.run()
            assert packet.delivered_ns is not None
            assert machine.gc(dst_node,
                              CoreAddress(2, 2, 0)).sram.read(4) == [1, 2, 3, 4]

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_responses_take_mesh_xyz_regardless_of_policy(self, name):
        machine = NetworkMachine(config=MachineConfig(
            dims=(3, 2, 2), chip_cols=6, chip_rows=6, seed=9, routing=name))
        src_node, dst_node = (0, 0, 0), (2, 1, 1)
        src_core, dst_core = CoreAddress(0, 0, 0), CoreAddress(1, 1, 0)
        machine.gc(dst_node, dst_core).sram.counted_write(3, [7, 7, 7, 7])
        delivered = []
        machine.set_delivery_hook(delivered.append)
        machine.send_remote_read(src_node, src_core, dst_node, dst_core,
                                 quad_addr=3, reply_quad=5)
        machine.sim.run()
        responses = [p for p in delivered
                     if p.kind is PacketKind.READ_RESPONSE
                     and (p.dst_node, p.dst_core) == (src_node, src_core)]
        assert len(responses) == 1
        response = responses[0]
        assert response.traffic_class is TrafficClass.RESPONSE
        assert response.route is None  # never policy-routed
        # Mesh restriction: hop count is the no-wrap XYZ distance, which
        # on this pair (offset -2 on X minimally) exceeds min_hops.
        assert response.torus_hops_taken == machine.torus.mesh_hops(
            dst_node, src_node)
        assert machine.torus.mesh_hops(dst_node, src_node) > \
            machine.torus.min_hops(dst_node, src_node)

    def test_valiant_requests_carry_two_phase_plans(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=9,
            routing="valiant"))
        packet = machine.make_request(
            PacketKind.COUNTED_WRITE, (0, 0, 0), CoreAddress(0, 0, 0),
            (1, 1, 1), CoreAddress(0, 0, 0))
        assert packet.route is not None
        assert len(packet.route.phases) == 2
        assert [phase.vc_class for phase in packet.route.phases] == [0, 1]

    def test_policy_instance_accepted(self):
        torus_policy = make_policy("fixed-xyz", Torus3D((2, 2, 2)))
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, routing=torus_policy))
        assert machine.routing is torus_policy

    def test_unknown_policy_name_raises(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            NetworkMachine(config=MachineConfig(
                dims=(2, 2, 2), chip_cols=6, chip_rows=6,
                routing="best-effort"))


class TestRingDeadlockFreedom:
    """Wrap-heavy ring traffic drains completely under every policy.

    This is the regression the per-VC link arbitration exists for: on a
    ring longer than two nodes, minimal routes continue around the wrap
    link, and a shared-FIFO link would deadlock the dateline discipline.
    """

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_ring_storm_drains(self, name):
        machine = NetworkMachine(config=MachineConfig(
            dims=(5, 1, 1), chip_cols=6, chip_rows=6, seed=21, routing=name))
        packets = []
        for x in range(5):
            for offset in (1, 2):
                packets.append(machine.send_counted_write(
                    (x, 0, 0), CoreAddress(x, 1, 0),
                    ((x + offset) % 5, 0, 0), CoreAddress(0, 0, 0),
                    quad_addr=offset))
        machine.sim.run()
        assert all(p.delivered_ns is not None for p in packets)


def test_next_request_direction_advances_valiant_phase(torus):
    plan = RoutePlan(policy="valiant", phases=(
        RoutePhase(target=(1, 0, 0), dim_order=(0, 1, 2), vc_class=0),
        RoutePhase(target=(1, 1, 0), dim_order=(0, 1, 2), vc_class=1)))
    packet = request_packet((0, 0, 0), (1, 1, 0), plan)
    assert next_request_direction(packet, (0, 0, 0), torus) == (0, 1)
    assert plan.phase_index == 0
    # At the intermediate target the plan advances and heads for dst.
    assert next_request_direction(packet, (1, 0, 0), torus) == (1, 1)
    assert plan.phase_index == 1
    assert next_request_direction(packet, (1, 1, 0), torus) is None
