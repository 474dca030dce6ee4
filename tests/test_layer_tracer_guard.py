"""The per-layer benchmark still sees the simulator's hot path.

``perfbench/bench_layers.LayerTracer`` bills host time and counts work by
wrapping entry points from outside the program: ``Simulator.at``/
``after``, the routers' ``receive``, ``Link.send`` and
``Link.return_credits``; for the water pipeline, ``VelocityVerlet.step``,
``VectorParticleCache.process_batch``, ``inz.encoded_sizes`` and
``TrafficModel.process_step``.  A hot path that schedules events, moves
packets or does its work around those entry points would silently drop
out of the per-layer metrics; these checks fail instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.fullsim import speedup
from repro.md import Decomposition, MdConfig, MdEngine
from repro.netsim import MachineConfig, NetworkMachine
from repro.runner.cache import canonicalize, config_digest
from repro.traffic import OpenLoopHarness
from repro.traffic.patterns import make_pattern

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from bench_layers import LayerTracer  # noqa: E402


def _open_loop():
    """A tiny open loop; returns its machine and result digest."""
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=2))
    harness = OpenLoopHarness(
        machine, make_pattern("uniform", machine.torus), 0.1, seed=2,
        warmup_ns=20.0, measure_ns=40.0, drain_ns=2000.0)
    record = {"result": harness.run().to_dict(),
              "events": machine.sim.events_processed}
    return machine, config_digest("tracer-guard",
                                  {"result": canonicalize(record)})


def test_tracer_reaches_every_hot_path_entry_point():
    __, untraced = _open_loop()
    with LayerTracer() as tracer:
        machine, traced = _open_loop()
    assert tracer.missing == []
    assert traced == untraced

    metrics = tracer.metrics()
    for layer in ("engine", "netsim.link", "netsim.core"):
        assert metrics[f"{layer}.self_s"] > 0, layer

    calls = tracer.calls
    events = machine.sim.events_processed
    assert events > 0
    assert calls["Simulator.at"] + calls["Simulator.after"] >= events
    received = sum(calls[f"{name}.receive"] for name in (
        "CoreRouter", "EdgeRouter", "RowAdapter", "ChannelAdapter"))
    assert received == sum(router.packets_routed
                           for router in tracer.routers) > 0
    sends = calls["Link.send"]
    assert sends == sum(link.packets_sent for link in tracer.links) > 0
    assert calls["Link.return_credits"] == sends


def _water():
    """A tiny water run priced three ways; returns its snapshots and
    result digest."""
    engine = MdEngine.water(512, config=MdConfig(warmup_steps=0), seed=2)
    snapshots = engine.run(4)
    decomposition = Decomposition(box=engine.system.box, node_dims=(2, 2, 2))
    # Looked up on the module so a traced run sees its wrapper.
    result = speedup.evaluate_system(snapshots, decomposition,
                                     engine.field.cutoff,
                                     pcache_warmup_steps=1)
    record = {label: {"total_bits": outcome.total_bits,
                      "mean_step_ns": outcome.mean_step_ns,
                      "pcache_hit_rates": outcome.pcache_hit_rates}
              for label, outcome in result.outcomes.items()}
    record["forces"] = [snapshot.forces_fp.tolist() for snapshot in snapshots]
    return snapshots, config_digest("tracer-guard-water",
                                    {"result": canonicalize(record)})


def test_tracer_reaches_every_water_pipeline_entry_point():
    __, untraced = _water()
    with LayerTracer() as tracer:
        snapshots, traced = _water()
    assert tracer.missing == []
    assert traced == untraced

    metrics = tracer.metrics()
    for layer in ("md", "compression", "fullsim"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["md.steps"] == len(snapshots)
    assert metrics["md.pairs"] == sum(
        snapshot.record.num_pairs for snapshot in snapshots) > 0
    # Three configs price every snapshot: the first computes its routes,
    # the other two reuse them, all inside fullsim spans.
    assert tracer.calls["TrafficModel.process_step"] == 3 * len(snapshots)
    assert metrics["fullsim.steps_priced"] == 3 * (len(snapshots) - 1)
    assert 0 < metrics["compression.pcache_hit_rate"] < 1
