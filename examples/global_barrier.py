#!/usr/bin/env python
"""Network-fence study: synchronization domains, patterns, and merging.

Shows (1) how barrier latency scales with the synchronization domain's
hop count (Figure 11's linear scaling), (2) the GC-to-ICB fence that paces
position streaming, and (3) the router-level fence merge/multicast
mechanics of Figure 10 on a small multicast DAG.

Run:  python examples/global_barrier.py
"""

from repro.analysis import format_table
from repro.fence import (
    FenceEdge,
    FenceEngine,
    FencePattern,
    configure_fence_network,
    run_fence_flood,
)
from repro.netsim import MachineConfig, NetworkMachine


def demo_barrier_scaling(machine: NetworkMachine) -> None:
    print("== Barrier latency vs synchronization domain (Figure 11) ==")
    engine = FenceEngine(machine)
    rows = []
    for hops in range(machine.torus.dims.diameter + 1):
        gc = engine.barrier_latency(hops, FencePattern.GC_TO_GC)
        icb = engine.barrier_latency(hops, FencePattern.GC_TO_ICB)
        rows.append((hops, f"{gc:.1f}", f"{icb:.1f}"))
    print(format_table(("hops", "GC-to-GC ns", "GC-to-ICB ns"), rows))
    print("paper (128 nodes): 51.5 ns at 0 hops, ~504 ns global\n")


def demo_merge_mechanics() -> None:
    print("== Fence merging and multicast (Figure 10) ==")
    # Four GCs inject fences into two first-level routers; the merged
    # fences meet at a middle router and multicast to three ICBs.
    sources = {f"gc{i}": [FenceEdge(f"gc{i}", f"rtr{i % 2}", "in")]
               for i in range(4)}
    edges = {
        ("rtr0", "in"): [FenceEdge("rtr0", "mid", "left")],
        ("rtr1", "in"): [FenceEdge("rtr1", "mid", "right")],
        ("mid", "left"): [FenceEdge("mid", f"icb{i}", "in")
                          for i in range(3)],
        ("mid", "right"): [FenceEdge("mid", f"icb{i}", "in")
                           for i in range(3)],
        **{(f"icb{i}", "in"): [] for i in range(3)},
    }
    routers = configure_fence_network(sources, edges)
    print("  preconfigured expected counts per router input:")
    for name, router in sorted(routers.items()):
        for port, unit in sorted(router.inputs.items()):
            print(f"    {name}[{port}]: expect {unit.expected}, "
                  f"multicast to {sorted(unit.output_mask) or ['(consume)']}")
    deliveries = run_fence_flood(sources, edges)
    print(f"  flood result: every ICB received exactly one merged fence: "
          f"{deliveries}\n")


def demo_concurrent_fences(machine: NetworkMachine) -> None:
    print("== Concurrent fences (Section V-D) ==")
    engine = FenceEngine(machine)
    completions = []
    for i in range(3):
        engine.start_fence(1, on_node_complete=lambda c, t:
                           completions.append(t))
    machine.sim.run()
    nodes = machine.torus.dims.num_nodes
    print(f"  3 overlapped fences completed on all {nodes} nodes "
          f"({len(completions)} completions); hardware supports up to "
          f"{FenceEngine.MAX_CONCURRENT} concurrent fences\n")


def main() -> None:
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=2))
    demo_barrier_scaling(machine)
    demo_merge_mechanics()
    demo_concurrent_fences(machine)


if __name__ == "__main__":
    main()
