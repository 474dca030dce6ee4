"""Open-loop harness: injection accounting, phases, determinism."""

import random

import pytest

from repro.netsim import (
    DEFAULT_PARAMS,
    MachineConfig,
    NetworkMachine,
    TrafficClass,
)
from repro.traffic import (
    InjectionProcess,
    OpenLoopHarness,
    make_pattern,
    measure_load_point,
    offered_load_to_rate,
)

TINY = dict(dims=(2, 1, 1), chip_cols=6, chip_rows=6)


def tiny_machine(seed=0):
    return NetworkMachine(config=MachineConfig(
        dims=(2, 1, 1), chip_cols=6, chip_rows=6, seed=seed))


class TestInjectionProcess:
    def test_offered_load_to_rate_normalization(self):
        # Load 1.0 == one flit per slice serialization time.
        rate = offered_load_to_rate(1.0, DEFAULT_PARAMS)
        assert rate == pytest.approx(
            1.0 / DEFAULT_PARAMS.flit_serialization_ns)
        assert offered_load_to_rate(0.5, DEFAULT_PARAMS) == pytest.approx(
            rate / 2)

    def test_periodic_rate_exact(self):
        rate = offered_load_to_rate(0.2, DEFAULT_PARAMS)
        process = InjectionProcess(rate, kind="periodic")
        gaps = [process.next_gap_ns() for __ in range(100)]
        assert all(gap == pytest.approx(1.0 / rate) for gap in gaps)

    def test_bernoulli_rate_within_one_percent(self):
        """Offered-load accounting: mean inter-injection gap within 1%."""
        rate = offered_load_to_rate(0.3, DEFAULT_PARAMS)
        process = InjectionProcess(rate, kind="bernoulli",
                                   rng=random.Random(12345))
        n = 200_000
        total = sum(process.next_gap_ns() for __ in range(n))
        assert total / n == pytest.approx(1.0 / rate, rel=0.01)

    def test_bernoulli_gaps_are_slot_multiples(self):
        process = InjectionProcess(0.5, kind="bernoulli",
                                   rng=random.Random(1), slot_ns=0.8)
        for __ in range(100):
            gap = process.next_gap_ns()
            assert gap > 0
            assert gap / 0.8 == pytest.approx(round(gap / 0.8))

    def test_validation(self):
        with pytest.raises(ValueError):
            InjectionProcess(0.0)
        with pytest.raises(ValueError):
            InjectionProcess(1.0, kind="poisson")
        with pytest.raises(ValueError):
            offered_load_to_rate(-0.5)


class TestOpenLoopHarness:
    def test_periodic_offered_load_within_one_percent(self):
        """Below saturation the measured offered load tracks the request."""
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        harness = OpenLoopHarness(machine, pattern, offered_load=0.2,
                                  process="periodic", warmup_ns=200.0,
                                  measure_ns=2000.0)
        result = harness.run()
        assert result.offered_load_measured == pytest.approx(0.2, rel=0.01)
        # ... and the network accepts what was offered.
        assert result.accepted_load == pytest.approx(
            result.offered_load_measured, rel=0.02)
        assert result.in_flight_at_end == 0

    def test_latency_summary_present_and_sane(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        result = OpenLoopHarness(machine, pattern, offered_load=0.1,
                                 warmup_ns=100.0, measure_ns=500.0).run()
        latency = result.request_latency_ns
        assert latency is not None
        assert latency["count"] > 0
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_read_fraction_produces_response_class(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        result = OpenLoopHarness(machine, pattern, offered_load=0.05,
                                 read_fraction=0.5, warmup_ns=100.0,
                                 measure_ns=800.0).run()
        assert TrafficClass.RESPONSE.value in result.classes
        response = result.classes[TrafficClass.RESPONSE.value]
        assert response.latencies_ns

    def test_delivery_hooks_restored_after_run(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        OpenLoopHarness(machine, pattern, offered_load=0.05,
                        warmup_ns=50.0, measure_ns=200.0).run()
        chip = machine.chips[(0, 0, 0)]
        assert chip.delivery_hook is None

    def test_per_class_machine_counters(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        OpenLoopHarness(machine, pattern, offered_load=0.05,
                        warmup_ns=50.0, measure_ns=400.0).run()
        injected = machine.injected_counts()
        delivered = machine.delivered_counts()
        assert injected[TrafficClass.REQUEST] > 0
        assert delivered[TrafficClass.REQUEST] == injected[TrafficClass.REQUEST]

    def test_validation(self):
        machine = tiny_machine()
        pattern = make_pattern("uniform", machine.torus)
        with pytest.raises(ValueError):
            OpenLoopHarness(machine, pattern, 0.1, read_fraction=1.5)
        with pytest.raises(ValueError):
            OpenLoopHarness(machine, pattern, 0.1, measure_ns=0.0)


class TestSurface:
    def test_measure_load_point_deterministic(self):
        a = measure_load_point(offered_load=0.1, warmup_ns=100.0,
                               measure_ns=400.0, **TINY)
        b = measure_load_point(offered_load=0.1, warmup_ns=100.0,
                               measure_ns=400.0, **TINY)
        assert a == b

    def test_result_shape_is_jsonable(self):
        import json

        record = measure_load_point(offered_load=0.1, warmup_ns=100.0,
                                    measure_ns=300.0, **TINY)
        assert record["pattern"] == "uniform"
        assert record["num_nodes"] == 2
        json.dumps(record)  # must round-trip to JSON for the cache
