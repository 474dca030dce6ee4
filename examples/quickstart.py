#!/usr/bin/env python
"""Quickstart: the three Anton 3 network specializations in five minutes.

Builds a small simulated machine and demonstrates, end to end:
  1. a counted write with a blocking read (fine-grained synchronization),
  2. INZ compression of a small-valued payload,
  3. the particle cache compressing a smooth position stream,
  4. a network-fence global barrier.

Run:  python examples/quickstart.py
"""

from repro.compression import ParticleCacheChannel, PositionPacket, inz
from repro.fence import FenceEngine
from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PingPongHarness,
)


def demo_counted_write(machine: NetworkMachine) -> None:
    print("== 1. Counted write + blocking read (Section III-A) ==")
    src, dst = (0, 0, 0), (1, 0, 0)
    core = CoreAddress(tile_u=0, tile_v=2, which=0)
    packet = machine.send_counted_write(src, core, dst, core,
                                        quad_addr=7, words=(1, 2, 3, 4))
    machine.run()
    gc = machine.gc(dst, core)
    print(f"  delivered quad {gc.sram.read(7)} in "
          f"{packet.latency_ns:.1f} ns; quad counter = "
          f"{gc.sram.counter(7)}")
    harness = PingPongHarness(machine)
    result = harness.measure_pair(src, core, dst, core)
    print(f"  ping-pong one-way latency: {result.one_way_ns:.1f} ns "
          f"({result.hops} torus hop)\n")


def demo_inz() -> None:
    print("== 2. INZ compression (Section IV-A) ==")
    payload = [211, -180, 95, 0]  # a typical force quad
    encoded = inz.encode_signed(payload)
    print(f"  {payload} -> {encoded.num_bytes} bytes on the wire "
          f"(raw: 16); decodes to {inz.decode_signed(encoded)}\n")


def demo_particle_cache() -> None:
    print("== 3. Particle cache (Section IV-B) ==")
    channel = ParticleCacheChannel()
    print("  step | wire packet           | residual bytes")
    for step in range(5):
        x = 1_000_000 + 300 * step + step * step
        wire, __ = channel.transfer(PositionPacket(42, (x, -x, 2 * x)))
        kind = type(wire).__name__
        residual = getattr(getattr(wire, "residual", None), "num_bytes", "-")
        print(f"  {step:4d} | {kind:21s} | {residual}")
        channel.end_of_step()
    print(f"  caches in sync: {channel.in_sync()}\n")


def demo_fence(machine: NetworkMachine) -> None:
    print("== 4. Network fence global barrier (Section V) ==")
    engine = FenceEngine(machine)
    diameter = machine.torus.dims.diameter
    for hops in (0, 1, diameter):
        latency = engine.barrier_latency(hops)
        label = "intra-node" if hops == 0 else (
            "global" if hops == diameter else "1-hop domain")
        print(f"  {hops}-hop barrier ({label}): {latency:.1f} ns")


def main() -> None:
    print("Building a 2x2x2 simulated Anton 3 machine "
          "(reduced 6x6 chips for speed)...\n")
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=1))
    demo_counted_write(machine)
    demo_inz()
    demo_particle_cache()
    demo_fence(machine)


if __name__ == "__main__":
    main()
