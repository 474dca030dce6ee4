"""Tests for fault injection and degraded-mode routing (repro.faults),
plus the unified MachineConfig construction API (repro.netsim.config)."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultAdviser,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultState,
    all_cables,
    cable_links,
    random_fault_schedule,
    router_links,
)
from repro.faults.schedule import _live_graph_connected
from repro.netsim import MachineConfig, NetworkMachine
from repro.netsim.fabric import FabricError
from repro.topology.torus import Torus3D

SMALL = dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21)


def small_config(**overrides):
    fields = dict(SMALL)
    fields.update(overrides)
    return MachineConfig(**fields)


# ---------------------------------------------------------------------------
# Schedules: validation, naming, derived randomness.
# ---------------------------------------------------------------------------


class TestFaultEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="dead-cat", node=(0, 0, 0))

    def test_dead_vc_needs_a_vc(self):
        with pytest.raises(ValueError, match="need a vc"):
            FaultEvent(kind="dead-vc", node=(0, 0, 0))
        FaultEvent(kind="dead-vc", node=(0, 0, 0), vc=1)

    def test_flap_needs_restore_after_start(self):
        with pytest.raises(ValueError, match="restore_ns"):
            FaultEvent(kind="flap", node=(0, 0, 0))
        with pytest.raises(ValueError, match="after time_ns"):
            FaultEvent(kind="flap", node=(0, 0, 0), time_ns=10.0,
                       restore_ns=5.0)

    def test_jsonable_roundtrip(self):
        schedule = FaultSchedule((
            FaultEvent(kind="dead-link", node=(1, 0, 1), axis=2),
            FaultEvent(kind="flap", node=(0, 1, 0), axis=1, time_ns=5.0,
                       restore_ns=50.0),
            FaultEvent(kind="dead-vc", node=(0, 0, 0), vc=3),
            FaultEvent(kind="dead-router", node=(1, 1, 1)),
        ))
        assert FaultSchedule.from_jsonable(schedule.to_jsonable()) == schedule

    def test_all_kinds_are_constructible(self):
        assert set(FAULT_KINDS) == {"dead-link", "dead-router", "dead-vc",
                                    "flap"}


class TestResourceNaming:
    def test_cable_links_are_the_two_directed_endpoints(self):
        torus = Torus3D((3, 2, 2))
        links = cable_links(torus, (0, 0, 0), 0)
        assert links == [((0, 0, 0), (0, 1)), ((1, 0, 0), (0, -1))]

    def test_cable_on_size_one_axis_is_a_self_loop(self):
        # With a size-1 axis the "far" node is the node itself, so the
        # cable carries the node's own +/- directed links.
        torus = Torus3D((1, 1, 2))
        links = cable_links(torus, (0, 0, 0), 0)
        assert links == [((0, 0, 0), (0, 1)), ((0, 0, 0), (0, -1))]
        assert len(cable_links(torus, (0, 0, 0), 2)) == 2

    def test_router_links_cover_all_twelve_endpoints(self):
        torus = Torus3D((3, 3, 3))
        links = router_links(torus, (1, 1, 1))
        assert len(links) == len(set(links)) == 12
        # Half leave the node, half are neighbors' links back toward it.
        assert sum(1 for owner, __ in links if owner == (1, 1, 1)) == 6

    def test_all_cables_enumerates_once_per_node_axis(self):
        torus = Torus3D((2, 2, 2))
        cables = all_cables(torus)
        assert len(cables) == len(set(cables)) == 3 * 8


class TestRandomSchedules:
    def test_same_parameters_same_schedule(self):
        a = random_fault_schedule((2, 2, 2), 4, seed=9)
        b = random_fault_schedule((2, 2, 2), 4, seed=9)
        assert a == b and len(a) == 4

    def test_seed_changes_the_draw(self):
        a = random_fault_schedule((2, 2, 2), 6, seed=1)
        b = random_fault_schedule((2, 2, 2), 6, seed=2)
        assert a != b

    def test_connectivity_is_preserved_by_construction(self):
        torus = Torus3D((2, 2, 2))
        for seed in range(8):
            schedule = random_fault_schedule((2, 2, 2), 10, seed=seed)
            dead = {(event.node, event.axis) for event in schedule}
            assert _live_graph_connected(torus, dead, set())

    def test_zero_faults_is_the_empty_schedule(self):
        assert len(random_fault_schedule((2, 2, 2), 0, seed=3)) == 0

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            random_fault_schedule((2, 2, 2), 25, seed=0)

    def test_dead_vc_schedules_unsupported(self):
        with pytest.raises(ValueError, match="dead-vc"):
            random_fault_schedule((2, 2, 2), 2, kind="dead-vc")


# ---------------------------------------------------------------------------
# Link-level fault semantics: credits withdraw, restore re-dispatches.
# ---------------------------------------------------------------------------


class TestLinkFaults:
    @pytest.fixture(scope="class")
    def machine(self):
        return NetworkMachine(config=small_config())

    def test_failed_link_withdraws_all_credits(self, machine):
        link = machine.channel_link((0, 0, 0), (0, 1), 0)
        healthy = link.vc_credits(0)
        assert healthy > 0
        link.fail()
        assert link.failed
        assert link.vc_credits(0) == 0 and link.vc_credits(1) == 0
        link.restore()
        assert not link.failed
        assert link.vc_credits(0) == healthy

    def test_dead_vc_withdraws_only_that_vc(self, machine):
        link = machine.channel_link((0, 0, 0), (1, 1), 1)
        link.fail_vc(0)
        assert link.vc_credits(0) == 0
        assert link.vc_credits(1) > 0
        link.restore_vc(0)
        assert link.vc_credits(0) > 0

    def test_out_of_range_vc_rejected(self, machine):
        link = machine.channel_link((0, 0, 0), (2, 1), 0)
        with pytest.raises(FabricError):
            link.fail_vc(99)


class TestFaultState:
    def test_epoch_bumps_on_every_mutation(self):
        state = FaultState()
        assert not state.active
        before = state.epoch
        state.kill_channel((0, 0, 0), (0, 1), 0)
        assert state.active and state.epoch > before
        assert state.is_channel_dead((0, 0, 0), (0, 1), 0)
        before = state.epoch
        state.revive_channel((0, 0, 0), (0, 1), 0)
        assert state.epoch > before and not state.active


# ---------------------------------------------------------------------------
# Injection through MachineConfig and the live reroute tables.
# ---------------------------------------------------------------------------


def faulted_machine(schedule, **overrides):
    return NetworkMachine(config=small_config(faults=schedule, **overrides))


class TestFaultInjection:
    def test_dead_link_kills_both_endpoints_on_both_slices(self):
        schedule = FaultSchedule((
            FaultEvent(kind="dead-link", node=(0, 0, 0), axis=0),))
        machine = faulted_machine(schedule)
        state = machine.fault_state
        assert state.active
        for owner, direction in cable_links(machine.torus, (0, 0, 0), 0):
            for slice_index in (0, 1):
                assert state.is_channel_dead(owner, direction, slice_index)
                link = machine.channel_link(owner, direction, slice_index)
                assert link.failed and link.vc_credits(0) == 0

    def test_dead_router_kills_every_incident_link(self):
        schedule = FaultSchedule((
            FaultEvent(kind="dead-router", node=(1, 1, 1)),))
        machine = faulted_machine(schedule)
        assert machine.fault_state.is_node_dead((1, 1, 1))
        for owner, direction in router_links(machine.torus, (1, 1, 1)):
            assert machine.channel_link(owner, direction, 0).failed

    def test_flap_restores_at_its_scheduled_time(self):
        schedule = FaultSchedule((
            FaultEvent(kind="flap", node=(0, 0, 0), axis=1,
                       restore_ns=40.0),))
        machine = faulted_machine(schedule)
        link = machine.channel_link((0, 0, 0), (1, 1), 0)
        assert link.failed and machine.fault_state.active
        machine.sim.run()  # only the restore event is pending
        assert not link.failed
        assert not machine.fault_state.active
        assert machine.sim.now >= 40.0

    def test_healthy_machine_carries_no_fault_machinery(self):
        machine = NetworkMachine(config=small_config())
        assert not machine.fault_state.active
        assert machine.fault_adviser is None
        assert all(chip.fault_adviser is None
                   for chip in machine.chips.values())


class TestFaultAdviser:
    @pytest.fixture(scope="class")
    def machine(self):
        return faulted_machine(random_fault_schedule((2, 2, 2), 8, seed=5))

    def test_route_options_strictly_decrease_live_distance(self, machine):
        adviser = machine.fault_adviser
        for source in machine.torus.nodes():
            for target in machine.torus.nodes():
                if source == target:
                    continue
                distances = adviser.live_distances(0, target)
                options = adviser.route_options(source, target, 0)
                assert options, (source, target)
                for axis, sign in options:
                    assert not adviser.is_dead(source, (axis, sign), 0)
                    nxt = machine.torus.neighbor(source, axis, sign)
                    assert distances[nxt] == distances[source] - 1

    def test_tables_invalidate_when_faults_change(self, machine):
        adviser = machine.fault_adviser
        state = machine.fault_state
        target = (1, 1, 1)
        before = adviser.live_distances(0, target)
        assert adviser.live_distances(0, target) is before  # cached
        # Any fault mutation bumps the epoch and rebuilds the table.
        victim = next(
            (coord, (axis, 1))
            for coord in machine.torus.nodes()
            for axis in (0, 1, 2)
            if not state.is_channel_dead(coord, (axis, 1), 0)
        )
        state.kill_channel(victim[0], victim[1], 0)
        try:
            assert adviser.live_distances(0, target) is not before
        finally:
            state.revive_channel(victim[0], victim[1], 0)

    def test_unreachable_target_raises_instead_of_looping(self):
        machine = faulted_machine(FaultSchedule((
            FaultEvent(kind="dead-router", node=(1, 1, 1)),)))
        adviser = machine.fault_adviser
        with pytest.raises(FabricError):
            adviser.route_options((0, 0, 0), (1, 1, 1), 0)


# ---------------------------------------------------------------------------
# End-to-end: degraded machines still deliver traffic deterministically.
# ---------------------------------------------------------------------------


class TestDegradedTraffic:
    POINT = dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6,
                 pattern="uniform", offered_load=0.2,
                 warmup_ns=100.0, measure_ns=300.0)

    def test_faulted_open_loop_delivers(self):
        from repro.traffic.surface import measure_load_point

        record = measure_load_point(routing="adaptive-escape",
                                    num_faults=4, fault_seed=1,
                                    **self.POINT)
        assert record["accepted_load"] > 0
        assert record["faults"] == random_fault_schedule(
            (2, 2, 2), 4, seed=1).to_jsonable()
        # The fault count is in the run's params, not echoed.
        assert "num_faults" not in record and "fault_kind" not in record

    def test_zero_faults_is_byte_identical_to_the_healthy_surface(self):
        from repro.traffic.surface import measure_load_point

        healthy = measure_load_point(num_faults=0, **self.POINT)
        assert "faults" not in healthy
        assert json.dumps(healthy) == json.dumps(
            measure_load_point(**self.POINT))

    def test_fault_runs_are_deterministic(self):
        from repro.traffic.surface import measure_load_point

        kwargs = dict(routing="randomized-minimal", num_faults=6,
                      fault_seed=2, **self.POINT)
        assert measure_load_point(**kwargs) == measure_load_point(**kwargs)

    def test_phase_loop_default_fence_spans_the_live_fabric(self):
        # Ten dead links stretch the live fence diameter of the 2x2x2
        # torus from 3 to 5 hops; a torus-diameter fence would fail the
        # domain check, so the harness default must be the live one.
        from repro.fence import FenceDomainError, FenceEngine
        from repro.workload import PhaseLoopHarness, md_timestep_phases

        machine = faulted_machine(random_fault_schedule((2, 2, 2), 10,
                                                        seed=0))
        with pytest.raises(FenceDomainError):
            FenceEngine(machine).barrier_latency(machine.torus.dims.diameter)
        phases = md_timestep_phases(machine, messages_per_node=2, window=2)
        result = PhaseLoopHarness(machine, phases).run(1)
        assert result.mean_iteration_ns > 0
        assert result.fence_hops == 5


# ---------------------------------------------------------------------------
# MachineConfig: the one construction surface.
# ---------------------------------------------------------------------------


class TestMachineConfig:
    def test_legacy_keywords_rejected(self):
        with pytest.raises(TypeError):
            NetworkMachine(dims=(2, 2, 2))

    def test_config_validates_chip_grid(self):
        with pytest.raises(ValueError):
            MachineConfig(dims=(2, 2, 2), chip_cols=0, chip_rows=6)

    def test_config_coerces_fault_iterables(self):
        events = [FaultEvent(kind="dead-link", node=(0, 0, 0), axis=1)]
        config = MachineConfig(dims=(2, 2, 2), faults=events)
        assert isinstance(config.faults, FaultSchedule)
        assert len(config.faults) == 1

    def test_config_is_hashable_and_frozen(self):
        config = small_config()
        hash(config)
        with pytest.raises(AttributeError):
            config.seed = 99
