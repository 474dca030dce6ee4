"""Closed-loop workloads: window discipline, phase loops, determinism."""

import json

import pytest

from repro.analysis import analyze_window_sweep
from repro.netsim import MachineConfig, NetworkMachine, TrafficClass
from repro.traffic import make_pattern
from repro.workload import (
    ClosedLoopDriver,
    FixedWindowHarness,
    PhaseLoopHarness,
    PhaseSpec,
    md_timestep_phases,
    measure_phase_loop,
    measure_window_point,
)

TINY = dict(dims=(2, 1, 1), chip_cols=6, chip_rows=6)


def tiny_machine(seed=0, dims=(2, 1, 1)):
    return NetworkMachine(config=MachineConfig(
        dims=dims, chip_cols=6, chip_rows=6, seed=seed))


class TestClosedLoopDriver:
    def test_rejects_patterns_with_no_senders(self):
        # Tornado on a 2-ring has a zero offset: nobody sends.
        machine = tiny_machine()
        pattern = make_pattern("tornado", machine.torus)
        with pytest.raises(ValueError):
            ClosedLoopDriver(machine, pattern, seed=0)

    def test_rejects_bad_read_fraction(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        with pytest.raises(ValueError):
            ClosedLoopDriver(machine, pattern, seed=0, read_fraction=1.5)

    def test_issue_and_completion_balance(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        driver = ClosedLoopDriver(machine, pattern, seed=0)
        node = driver.sources[0]
        delivered = []
        machine.set_delivery_hook(delivered.append)
        driver.issue(node)
        assert driver.outstanding[node] == 1
        assert driver.total_outstanding == 1
        machine.run()
        assert delivered
        completed = driver.completion(delivered[-1])
        assert completed is not None
        done_node, issued_ns = completed
        assert done_node == node
        assert issued_ns == pytest.approx(0.0)
        assert driver.total_outstanding == 0


class TestFixedWindowHarness:
    def test_window_never_exceeded(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        harness = FixedWindowHarness(machine, pattern, window=3,
                                     warmup_ns=100.0, measure_ns=400.0)
        result = harness.run()
        # The driver tracks the per-node high-water mark: exactly the
        # window (primed full), never beyond it.
        assert harness._driver.max_outstanding == 3
        assert result.mean_outstanding_per_source <= 3.0 + 1e-9
        assert result.completed_transactions > 0

    def test_drains_to_empty_below_saturation(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        result = FixedWindowHarness(machine, pattern, window=4,
                                    warmup_ns=100.0,
                                    measure_ns=400.0).run()
        assert result.in_flight_at_end == 0
        in_flight = machine.in_flight_counts()
        assert in_flight[TrafficClass.REQUEST] == 0
        assert in_flight[TrafficClass.RESPONSE] == 0

    def test_latency_summary_sane(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        result = FixedWindowHarness(machine, pattern, window=2,
                                    warmup_ns=100.0,
                                    measure_ns=500.0).run()
        latency = result.transaction_latency_ns
        assert latency is not None
        assert latency["count"] == result.completed_transactions
        assert 0 < latency["p50"] <= latency["p95"] <= latency["max"]

    def test_reads_complete_on_response_return(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        writes = FixedWindowHarness(machine, pattern, window=2,
                                    warmup_ns=100.0, measure_ns=600.0).run()
        machine2 = tiny_machine()
        pattern2 = make_pattern("uniform", machine2.torus)
        reads = FixedWindowHarness(machine2, pattern2, window=2,
                                   read_fraction=1.0, warmup_ns=100.0,
                                   measure_ns=600.0).run()
        assert reads.completed_transactions > 0
        assert reads.in_flight_at_end == 0
        # A read transaction is a round trip: its latency must exceed
        # the one-way counted-write latency on the same machine shape.
        assert (reads.transaction_latency_ns["mean"]
                > 1.5 * writes.transaction_latency_ns["mean"])

    def test_reply_quads_recycled_across_read_transactions(self):
        """Completed reads return their reply quads to a per-node free
        list, so allocation is bounded by the window (not the run
        length) and long read-heavy runs cannot outgrow the 8192-quad
        GC SRAM."""
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        harness = FixedWindowHarness(machine, pattern, window=2,
                                     read_fraction=1.0, warmup_ns=100.0,
                                     measure_ns=1500.0)
        result = harness.run()
        driver = harness._driver
        # Many transactions completed, but no node ever allocated more
        # quads than it can hold outstanding at once.
        assert result.completed_transactions > 3 * 2 * len(driver.sources)
        assert all(next_quad - 1 <= 2
                   for next_quad in driver._next_quad.values())

    def test_think_time_lowers_throughput(self):
        results = {}
        for think in (0.0, 60.0):
            machine = tiny_machine()
            pattern = make_pattern("uniform", machine.torus)
            results[think] = FixedWindowHarness(
                machine, pattern, window=2, think_ns=think,
                warmup_ns=100.0, measure_ns=800.0).run()
        assert results[60.0].accepted_load < results[0.0].accepted_load

    def test_delivery_hooks_restored_after_run(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        FixedWindowHarness(machine, pattern, window=1, warmup_ns=50.0,
                           measure_ns=200.0).run()
        chip = machine.chips[(0, 0, 0)]
        assert chip.delivery_hook is None

    def test_validation(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        with pytest.raises(ValueError):
            FixedWindowHarness(machine, pattern, window=0)
        with pytest.raises(ValueError):
            FixedWindowHarness(machine, pattern, window=1, think_ns=-1.0)
        with pytest.raises(ValueError):
            FixedWindowHarness(machine, pattern, window=1, measure_ns=0.0)


class TestWindowSurface:
    def test_measure_window_point_deterministic(self):
        a = measure_window_point(window=3, warmup_ns=100.0,
                                 measure_ns=400.0, **TINY)
        b = measure_window_point(window=3, warmup_ns=100.0,
                                 measure_ns=400.0, **TINY)
        assert a == b

    def test_result_shape_is_jsonable(self):
        record = measure_window_point(window=2, warmup_ns=100.0,
                                      measure_ns=300.0, **TINY)
        assert record["pattern"] == "uniform"
        assert record["window"] == 2
        assert record["num_nodes"] == 2
        json.dumps(record)  # must round-trip to JSON for the cache

    def test_window_sweep_reports_knee(self):
        points = [measure_window_point(window=window, warmup_ns=100.0,
                                       measure_ns=400.0, **TINY)
                  for window in (1, 2, 4)]
        assert len(points) == 3
        knee = analyze_window_sweep(
            [{"result": point} for point in points]).to_dict()
        assert knee["knee_window"] in (1, 2, 4)
        assert knee["plateau_accepted_load"] > 0


class TestPhaseLoopHarness:
    def test_md_timestep_shape(self):
        machine = tiny_machine(dims=(2, 2, 2))
        phases = md_timestep_phases(machine, messages_per_node=4, window=2)
        assert [p.name for p in phases] == ["position-export", "force-return"]
        assert all(p.pattern.name == "halo" for p in phases)

    def test_iteration_records_and_fence_fraction(self):
        machine = tiny_machine(dims=(2, 2, 2))
        harness = PhaseLoopHarness(
            machine, md_timestep_phases(machine, messages_per_node=4,
                                        window=2), seed=3)
        assert harness.fence_hops == machine.torus.dims.diameter
        result = harness.run(iterations=2)
        assert len(result.iterations) == 2
        for record in result.iterations:
            assert record["iteration_ns"] > 0
            assert len(record["phases"]) == 2
            assert 0 < record["fence_wait_fraction"] < 1
            for phase in record["phases"]:
                assert phase["burst_ns"] > 0
                assert phase["fence_ns"] > 0
                assert phase["finish_spread_ns"] >= 0
        means = result.phase_means()
        assert set(means) == {"position-export", "force-return"}

    def test_sim_time_advances_across_iterations(self):
        machine = tiny_machine(dims=(2, 2, 2))
        harness = PhaseLoopHarness(
            machine, md_timestep_phases(machine, messages_per_node=3,
                                        window=2))
        first = harness.run_iteration(0)
        start_second = machine.sim.now
        second = harness.run_iteration(1)
        assert start_second > 0
        assert machine.sim.now > start_second
        assert first["iteration_ns"] > 0 and second["iteration_ns"] > 0

    def test_validation(self):
        machine = tiny_machine(dims=(2, 2, 2))
        with pytest.raises(ValueError):
            PhaseLoopHarness(machine, [])
        with pytest.raises(ValueError):
            PhaseSpec("p", make_pattern("uniform", machine.torus), 0)
        with pytest.raises(ValueError):
            PhaseSpec("p", make_pattern("uniform", machine.torus), 4,
                      window=0)
        harness = PhaseLoopHarness(
            machine, md_timestep_phases(machine, messages_per_node=2))
        with pytest.raises(ValueError):
            harness.run(iterations=0)


class TestPhaseLoopSurface:
    def test_deterministic_and_jsonable(self):
        params = dict(pattern="uniform", messages_per_node=3, window=2,
                      iterations=1, **TINY)
        a = measure_phase_loop(**params)
        b = measure_phase_loop(**params)
        assert a == b
        json.dumps(a)
        assert a["pattern"] == "uniform"
        assert a["mean_iteration_ns"] > 0
        assert 0 < a["mean_fence_wait_fraction"] < 1

    def test_composes_with_routing_policies(self):
        records = {
            routing: measure_phase_loop(
                pattern="uniform", routing=routing, messages_per_node=3,
                window=2, iterations=1, **TINY)
            for routing in ("fixed-xyz", "valiant")
        }
        assert records["fixed-xyz"]["routing"] == "fixed-xyz"
        assert records["valiant"]["routing"] == "valiant"
        # Valiant's detour costs real time even on the tiny ring.
        assert (records["valiant"]["mean_iteration_ns"]
                != records["fixed-xyz"]["mean_iteration_ns"])
