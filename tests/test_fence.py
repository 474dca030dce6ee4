"""Tests for the network fence (Section V): merge units, DAG config,
and the machine-level fence engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultSchedule, random_fault_schedule
from repro.fence import (
    FenceConfigError,
    FenceDomainError,
    FenceEdge,
    FenceEngine,
    FenceMergeUnit,
    FencePattern,
    FenceRouterModel,
    FenceTiming,
    configure_fence_network,
    run_fence_flood,
)
from repro.netsim import MachineConfig, NetworkMachine


class TestFenceMergeUnit:
    def test_fires_at_expected_count(self):
        unit = FenceMergeUnit(expected=3, output_mask=frozenset({"a", "b"}))
        assert unit.arrive() == (False, frozenset())
        assert unit.arrive() == (False, frozenset())
        fired, outputs = unit.arrive()
        assert fired and outputs == {"a", "b"}

    def test_counter_resets_after_fire(self):
        unit = FenceMergeUnit(expected=2, output_mask=frozenset({"x"}))
        unit.arrive()
        unit.arrive()
        assert unit.count == 0
        assert unit.fires == 1
        unit.arrive()
        fired, __ = unit.arrive()
        assert fired and unit.fires == 2

    def test_expected_must_be_positive(self):
        with pytest.raises(FenceConfigError):
            FenceMergeUnit(expected=0, output_mask=frozenset())

    def test_overflow_detected(self):
        unit = FenceMergeUnit(expected=1, output_mask=frozenset())
        unit.count = 1  # corrupt state
        with pytest.raises(FenceConfigError):
            unit.arrive()


class TestFenceRouterModel:
    def test_unknown_input_rejected(self):
        router = FenceRouterModel("r")
        with pytest.raises(FenceConfigError):
            router.fence_arrival("p0")

    def test_merge_and_multicast(self):
        router = FenceRouterModel("r")
        router.configure_input("in0", expected=2,
                               output_mask={"out0", "out1"})
        assert router.fence_arrival("in0") == frozenset()
        assert router.fence_arrival("in0") == {"out0", "out1"}


def linear_chain(n_sources, depth):
    """Sources fan into router r0; r0 -> r1 -> ... -> r{depth-1} -> sink."""
    sources = {f"s{i}": [FenceEdge(f"s{i}", "r0", "in")]
               for i in range(n_sources)}
    router_edges = {}
    for d in range(depth):
        nxt = f"r{d + 1}" if d + 1 < depth else "sink"
        router_edges[(f"r{d}", "in")] = [FenceEdge(f"r{d}", nxt, "in")]
    router_edges[("sink", "in")] = []
    return sources, router_edges


class TestFenceFlood:
    def test_chain_delivers_exactly_once(self):
        sources, edges = linear_chain(n_sources=5, depth=3)
        deliveries = run_fence_flood(sources, edges)
        assert deliveries == {"sink:in": 1}

    def test_tree_merge(self):
        # Two first-level routers, each fed by 3 sources, merging into one.
        sources = {}
        for i in range(3):
            sources[f"a{i}"] = [FenceEdge(f"a{i}", "left", "in")]
            sources[f"b{i}"] = [FenceEdge(f"b{i}", "right", "in")]
        edges = {
            ("left", "in"): [FenceEdge("left", "top", "l")],
            ("right", "in"): [FenceEdge("right", "top", "r")],
            ("top", "l"): [FenceEdge("top", "sink", "in")],
            ("top", "r"): [FenceEdge("top", "sink", "in")],
            ("sink", "in"): [],
        }
        deliveries = run_fence_flood(sources, edges)
        # The sink's expected count is 2 (one merged fence per top input).
        assert deliveries == {"sink:in": 1}

    def test_multicast_reaches_all_sinks(self):
        sources = {"s": [FenceEdge("s", "r", "in")]}
        edges = {
            ("r", "in"): [FenceEdge("r", f"sink{i}", "in") for i in range(4)],
        }
        deliveries = run_fence_flood(sources, edges)
        assert deliveries == {f"sink{i}:in": 1 for i in range(4)}

    def test_expected_counts_derived_from_topology(self):
        sources, edges = linear_chain(n_sources=7, depth=1)
        routers = configure_fence_network(sources, edges)
        assert routers["r0"].inputs["in"].expected == 7

    @given(st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_exactly_once_any_chain(self, n_sources, depth):
        sources, edges = linear_chain(n_sources, depth)
        assert run_fence_flood(sources, edges) == {"sink:in": 1}

    def test_unreachable_config_rejected(self):
        with pytest.raises(FenceConfigError):
            configure_fence_network({}, {("r", "in"): []})


@pytest.fixture(scope="module")
def small_machine():
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21))
    return machine, FenceEngine(machine)


class TestFenceEngine:
    def test_zero_hop_barrier_is_intra_node(self, small_machine):
        machine, engine = small_machine
        latency = engine.barrier_latency(0)
        timing = engine.timing
        assert latency == pytest.approx(
            timing.aggregation_ns + timing.delivery_ns)

    def test_barrier_latency_linear_in_hops(self, small_machine):
        machine, engine = small_machine
        lat = {h: engine.barrier_latency(h) for h in (1, 2, 3)}
        d1 = lat[2] - lat[1]
        d2 = lat[3] - lat[2]
        assert d1 == pytest.approx(d2, rel=0.05)

    def test_fence_per_hop_exceeds_message_per_hop(self, small_machine):
        """Section V-F: fence hops cost ~17.6 ns more than message hops
        because fences traverse all valid paths at each hop."""
        machine, engine = small_machine
        per_hop = engine.barrier_latency(3) - engine.barrier_latency(2)
        assert per_hop > 34.2

    def test_copies_per_direction(self, small_machine):
        __, engine = small_machine
        # 2 slices x 4 request VCs: all valid paths (Section V-C).
        assert engine.copies_per_direction == 8

    def test_icb_pattern_completes_sooner(self, small_machine):
        machine, engine = small_machine
        gc = engine.barrier_latency(1, FencePattern.GC_TO_GC)
        icb = engine.barrier_latency(1, FencePattern.GC_TO_ICB)
        assert icb < gc

    def test_negative_hops_rejected(self, small_machine):
        __, engine = small_machine
        with pytest.raises(ValueError):
            engine.start_fence(-1)

    def test_concurrent_fence_limit(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(1, 1, 2), chip_cols=6, chip_rows=6))
        engine = FenceEngine(machine)
        for __ in range(FenceEngine.MAX_CONCURRENT):
            engine.start_fence(0)
        with pytest.raises(RuntimeError):
            engine.start_fence(0)

    def test_concurrent_fences_all_complete(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 1, 2), chip_cols=6, chip_rows=6))
        engine = FenceEngine(machine)
        done = []
        for __ in range(3):
            engine.start_fence(
                1, on_node_complete=lambda c, t: done.append((c, t)))
        machine.sim.run()
        assert len(done) == 3 * machine.torus.dims.num_nodes

    def test_all_nodes_complete_global_barrier(self, small_machine):
        machine, engine = small_machine
        diameter = machine.torus.dims.diameter
        completions = []
        engine.start_fence(
            diameter, on_node_complete=lambda c, t: completions.append(c))
        machine.sim.run()
        assert sorted(completions) == sorted(machine.torus.nodes())

    def test_custom_timing(self):
        machine = NetworkMachine(config=MachineConfig(
            dims=(1, 1, 2), chip_cols=6, chip_rows=6))
        timing = FenceTiming(aggregation_ns=10.0, delivery_ns=5.0)
        engine = FenceEngine(machine, timing=timing)
        assert engine.barrier_latency(0) == pytest.approx(15.0)


def faulted_fence_machine(schedule):
    return NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21, faults=schedule))


class TestFenceDomains:
    """Unreachable synchronization domains fail fast with a diagnostic
    instead of hanging a quiesced simulation."""

    def test_dead_router_raises_diagnostic_before_simulating(self):
        machine = faulted_fence_machine(FaultSchedule((
            FaultEvent(kind="dead-router", node=(1, 1, 1)),)))
        engine = FenceEngine(machine)
        with pytest.raises(FenceDomainError, match="dead router"):
            engine.barrier_latency(2)
        # The check runs at start_fence: zero simulated slices burned.
        assert machine.sim.now == 0.0

    def test_live_diameter_raises_on_a_partitioned_fabric(self):
        machine = faulted_fence_machine(FaultSchedule((
            FaultEvent(kind="dead-router", node=(1, 1, 1)),)))
        with pytest.raises(FenceDomainError, match="partitioned"):
            FenceEngine(machine).live_diameter()

    def test_zero_hop_barrier_survives_dead_routers(self):
        machine = faulted_fence_machine(FaultSchedule((
            FaultEvent(kind="dead-router", node=(1, 1, 1)),)))
        engine = FenceEngine(machine)
        assert engine.barrier_latency(0) > 0

    def test_intact_domain_completes_under_unrelated_faults(self):
        machine = faulted_fence_machine(
            random_fault_schedule((2, 2, 2), 2, seed=1))
        healthy = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21))
        faulted_latency = FenceEngine(machine).barrier_latency(2)
        assert faulted_latency >= FenceEngine(healthy).barrier_latency(2)

    def test_live_distances_computed_once_per_fault_epoch(self,
                                                          monkeypatch):
        """Fences in one fault epoch reuse one BFS per source; a flap's
        restore starts a new epoch, and the next fence recomputes."""
        calls = []
        original = FenceEngine._live_fence_distances

        def counted(engine, source):
            calls.append(source)
            return original(engine, source)

        monkeypatch.setattr(FenceEngine, "_live_fence_distances", counted)
        machine = faulted_fence_machine(FaultSchedule((
            FaultEvent(kind="dead-link", node=(1, 1, 1), axis=1),
            FaultEvent(kind="flap", node=(0, 0, 0), axis=0, time_ns=0.0,
                       restore_ns=50.0),
        )))
        engine = FenceEngine(machine)
        nodes = machine.torus.dims.num_nodes
        hops = engine.live_diameter()
        assert len(calls) == nodes
        epoch = machine.fault_state.epoch
        engine.start_fence(hops)
        engine.start_fence(hops)
        assert len(calls) == nodes
        machine.run()
        assert machine.fault_state.epoch > epoch  # the flap came back
        assert engine.barrier_latency(hops) > 0
        assert len(calls) == 2 * nodes
        assert engine.barrier_latency(hops) > 0
        assert len(calls) == 2 * nodes

    def test_pair_beyond_round_budget_detected(self):
        # Strip (0, 0, 0) down to a single live cable (toward (1, 0, 0)):
        # its torus-1-hop neighbors are now 3 live hops away, so a 1-hop
        # fence domain is unsatisfiable while the fabric stays connected.
        isolating = FaultSchedule((
            FaultEvent(kind="dead-link", node=(0, 0, 0), axis=0),
            FaultEvent(kind="dead-link", node=(0, 0, 0), axis=1),
            FaultEvent(kind="dead-link", node=(0, 1, 0), axis=1),
            FaultEvent(kind="dead-link", node=(0, 0, 0), axis=2),
            FaultEvent(kind="dead-link", node=(0, 0, 1), axis=2),
        ))
        machine = faulted_fence_machine(isolating)
        engine = FenceEngine(machine)
        with pytest.raises(FenceDomainError, match="partitioned"):
            engine.barrier_latency(1)
        # Widened to the live diameter, the same engine still completes.
        assert engine.barrier_latency(engine.live_diameter()) > 0
