"""Contention and flow-control behavior of the flit simulator.

Under load, channel serialization must bound throughput at the physical
rate, credit-based virtual cut-through must backpressure rather than drop
packets, and every injected packet must still be delivered exactly once.
"""

import pytest

from repro.netsim import CoreAddress, MachineConfig, NetworkMachine


@pytest.fixture
def machine():
    return NetworkMachine(config=MachineConfig(
        dims=(2, 1, 1), chip_cols=6, chip_rows=6, seed=41))


class TestChannelSerialization:
    def test_burst_respects_channel_bandwidth(self, machine):
        """A burst of packets between neighbors drains no faster than the
        slice serialization rate allows."""
        n_packets = 120
        core = CoreAddress(0, 2, 0)
        packets = []
        for i in range(n_packets):
            packets.append(machine.send_counted_write(
                (0, 0, 0), core, (1, 0, 0), CoreAddress(0, 2, 0),
                quad_addr=i % 512, slice_index=0))
        machine.sim.run()
        assert all(p.delivered_ns is not None for p in packets)
        first = min(p.delivered_ns for p in packets)
        last = max(p.delivered_ns for p in packets)
        flit_ns = machine.params.flit_serialization_ns
        # All packets share one slice: the drain time of the burst must be
        # at least (n-1) serialization slots.
        assert last - first >= (n_packets - 1) * flit_ns * 0.95

    def test_two_slices_drain_faster_than_one(self, machine):
        def run_burst(slice_choice):
            m = NetworkMachine(config=MachineConfig(
                dims=(2, 1, 1), chip_cols=6, chip_rows=6, seed=43))
            packets = []
            for i in range(80):
                slice_index = slice_choice(i)
                packets.append(m.send_counted_write(
                    (0, 0, 0), CoreAddress(0, 2, 0), (1, 0, 0),
                    CoreAddress(0, 2, 0), quad_addr=i % 512,
                    slice_index=slice_index))
            m.sim.run()
            return max(p.delivered_ns for p in packets)

        one_slice = run_burst(lambda i: 0)
        two_slices = run_burst(lambda i: i % 2)
        assert two_slices < one_slice

    def test_all_delivered_exactly_once(self, machine):
        core = CoreAddress(1, 1, 0)
        dst = CoreAddress(2, 3, 1)
        for i in range(60):
            machine.send_counted_write((0, 0, 0), core, (1, 0, 0), dst,
                                       quad_addr=7, words=(1, 0, 0, 0),
                                       accumulate=True)
        machine.sim.run()
        gc = machine.gc((1, 0, 0), dst)
        assert gc.sram.read(7)[0] == 60
        assert gc.sram.counter(7) == 60

    def test_ordering_preserved_per_path(self, machine):
        """Packets on the same (slice, dim order) path arrive in order —
        the network ordering property the fence builds on (Section V)."""
        core = CoreAddress(0, 0, 0)
        dst = CoreAddress(0, 0, 1)
        packets = []
        for i in range(30):
            packets.append(machine.send_counted_write(
                (0, 0, 0), core, (1, 0, 0), dst, quad_addr=11,
                words=(i, 0, 0, 0), slice_index=0))
        machine.sim.run()
        deliveries = [p.delivered_ns for p in packets]
        assert deliveries == sorted(deliveries)
        # Last write wins: the quad holds the final sequence number.
        assert machine.gc((1, 0, 0), dst).sram.read(11)[0] == 29

    def test_congested_latency_exceeds_unloaded(self, machine):
        core = CoreAddress(0, 2, 0)
        dst = CoreAddress(0, 2, 0)
        lone = machine.send_counted_write((0, 0, 0), core, (1, 0, 0), dst,
                                          quad_addr=1, slice_index=0)
        machine.sim.run()
        packets = [machine.send_counted_write(
            (0, 0, 0), core, (1, 0, 0), dst, quad_addr=2 + i,
            slice_index=0) for i in range(100)]
        machine.sim.run()
        tail = packets[-1]
        assert tail.latency_ns > lone.latency_ns
