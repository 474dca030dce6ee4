"""The per-layer benchmark still sees the simulator's hot path.

``perfbench/bench_layers.LayerTracer`` bills host time and counts work by
wrapping entry points from outside the program: ``Simulator.at``/
``after``, the routers' ``receive``, ``Link.send`` and
``Link.return_credits``.  A hot path that schedules events or moves
packets around those entry points would silently drop out of the
per-layer metrics; these checks fail instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

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
