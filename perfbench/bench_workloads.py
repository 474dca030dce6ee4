"""The benchmark's three workloads, each driven through public entry points.

Every workload is split the way the end-to-end metrics are:

* ``setup(seed, params)`` builds everything up to the first simulated
  event (timed as ``setup_s``);
* ``run(state)`` is the one timed harness call (timed as ``run_s``);
* ``check(state, result)`` returns the output checks that failed, so an
  empty list means the operation passed;
* ``record(state, result)`` is the JSON-able result whose canonical
  digest must repeat exactly across every operation with one seed.

The ``paper`` size is what the benchmark measures; ``tiny`` is the smoke
size its tests and its untimed warm-up use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple

from repro.analysis import within_band
from repro.config import PAPER_INZ_PCACHE_REDUCTION_RANGE
from repro.fullsim import FULL, speedup
from repro.md import Decomposition, MdEngine
from repro.netsim import MachineConfig, NetworkMachine
from repro.netsim.packet import TrafficClass
from repro.runner.cache import canonicalize, config_digest
from repro.traffic import OpenLoopHarness
from repro.traffic.patterns import make_pattern
from repro.workload import PhaseLoopHarness, md_timestep_phases

#: The slack the Figure 9a benchmark allows around the paper's band.
FIG9_SLACK = 0.12


class Workload(NamedTuple):
    name: str
    sizes: Mapping[str, Mapping[str, object]]
    setup: Callable[[int, Mapping[str, object]], object]
    run: Callable[[object], object]
    check: Callable[[object, object], List[str]]
    record: Callable[[object, object], dict]


def result_digest(workload: str, seed: int, size: str, record: dict) -> str:
    """The canonical digest of one operation's result."""
    return config_digest(workload, {"seed": seed, "size": size,
                                    "result": canonicalize(record)})


def _drained(machine: NetworkMachine) -> List[str]:
    """Packet conservation after drain: every injection was delivered."""
    failures = []
    injected = machine.injected_counts()
    delivered = machine.delivered_counts()
    for traffic_class in TrafficClass:
        sent, got = injected[traffic_class], delivered[traffic_class]
        if sent != got:
            failures.append(f"{traffic_class.value}: injected {sent} != "
                            f"delivered {got} + 0 in flight after drain")
    if machine.sim.pending_events:
        failures.append(f"{machine.sim.pending_events} events still "
                        "pending after drain")
    if delivered[TrafficClass.REQUEST] == 0:
        failures.append("no request was delivered")
    return failures


def _machine_counts(machine: NetworkMachine) -> dict:
    return {
        "events": machine.sim.events_processed,
        "injected": {tc.value: n for tc, n in machine.injected_counts().items()},
        "delivered": {tc.value: n
                      for tc, n in machine.delivered_counts().items()},
        "channel_flits": machine.total_channel_flits(),
    }


# ----------------------------------------------------------------------
# openloop-uniform-128: Bernoulli open loop on the paper's 4x4x8 machine.
# ----------------------------------------------------------------------


def _openloop_setup(seed: int, p: Mapping[str, object]) -> OpenLoopHarness:
    machine = NetworkMachine(config=MachineConfig(
        dims=p["dims"], chip_cols=p["chip_cols"], chip_rows=p["chip_rows"],
        seed=seed, routing="randomized-minimal"))
    return OpenLoopHarness(
        machine, make_pattern("uniform", machine.torus), p["offered_load"],
        seed=seed, process="bernoulli", warmup_ns=p["warmup_ns"],
        measure_ns=p["measure_ns"], drain_ns=p["drain_ns"])


def _openloop_check(harness: OpenLoopHarness, result) -> List[str]:
    failures = _drained(harness.machine)
    if result.in_flight_at_end:
        failures.append(f"{result.in_flight_at_end} measure-window packets "
                        "in flight after drain")
    return failures


def _openloop_record(harness: OpenLoopHarness, result) -> dict:
    return {"result": result.to_dict(),
            "machine": _machine_counts(harness.machine)}


OPENLOOP = Workload(
    name="openloop-uniform-128",
    sizes={
        "paper": dict(dims=(4, 4, 8), chip_cols=24, chip_rows=12,
                      offered_load=0.1, warmup_ns=100.0, measure_ns=100.0,
                      drain_ns=2000.0),
        "tiny": dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6,
                     offered_load=0.1, warmup_ns=50.0, measure_ns=50.0,
                     drain_ns=2000.0),
    },
    setup=_openloop_setup,
    run=lambda harness: harness.run(),
    check=_openloop_check,
    record=_openloop_record,
)


# ----------------------------------------------------------------------
# phaseloop-adaptive-reads: fence-synchronized MD phase loop, 2x2x2.
# ----------------------------------------------------------------------


class _PhaseLoop(NamedTuple):
    harness: PhaseLoopHarness
    iterations: int
    transactions: int  # requests the phase loop must complete


def _phaseloop_setup(seed: int, p: Mapping[str, object]) -> _PhaseLoop:
    machine = NetworkMachine(config=MachineConfig(
        dims=p["dims"], chip_cols=p["chip_cols"], chip_rows=p["chip_rows"],
        seed=seed, routing="adaptive-escape"))
    phases = md_timestep_phases(
        machine, messages_per_node=p["messages_per_node"],
        window=p["window"], pattern=p["pattern"], read_fraction=0.5)
    harness = PhaseLoopHarness(machine, phases, seed=seed)
    nodes = machine.torus.dims.num_nodes
    return _PhaseLoop(harness, p["iterations"],
                      p["iterations"] * len(phases) * nodes
                      * p["messages_per_node"])


def _phaseloop_check(state: _PhaseLoop, result) -> List[str]:
    machine = state.harness.machine
    failures = _drained(machine)
    requests = machine.delivered_counts()[TrafficClass.REQUEST]
    if requests != state.transactions:
        failures.append(f"{requests} of {state.transactions} transactions "
                        "completed")
    if len(result.iterations) != state.iterations:
        failures.append(f"{len(result.iterations)} of {state.iterations} "
                        "iterations completed")
    for record in result.iterations:
        for phase in record["phases"]:
            if not phase["fence_ns"] > 0:
                failures.append(f"iteration {record['iteration']} "
                                f"{phase['name']}: fence did not complete")
    return failures


def _phaseloop_record(state: _PhaseLoop, result) -> dict:
    return {"result": result.to_dict(),
            "machine": _machine_counts(state.harness.machine)}


PHASELOOP = Workload(
    name="phaseloop-adaptive-reads",
    sizes={
        "paper": dict(dims=(2, 2, 2), chip_cols=24, chip_rows=12,
                      pattern="uniform", messages_per_node=64, window=8,
                      iterations=2),
        "tiny": dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6,
                     pattern="uniform", messages_per_node=6, window=2,
                     iterations=1),
    },
    setup=_phaseloop_setup,
    run=lambda state: state.harness.run(state.iterations),
    check=_phaseloop_check,
    record=_phaseloop_record,
)


# ----------------------------------------------------------------------
# water-compression: the Figure 9 water pipeline (md, compression, fullsim).
# ----------------------------------------------------------------------


class _Water(NamedTuple):
    engine: MdEngine
    steps: int
    node_dims: tuple


def _water_setup(seed: int, p: Mapping[str, object]) -> _Water:
    return _Water(MdEngine.water(p["n_atoms"], seed=seed), p["steps"],
                  p["node_dims"])


def _water_run(state: _Water):
    engine = state.engine
    snapshots = engine.run(state.steps)
    decomposition = Decomposition(box=engine.system.box,
                                  node_dims=state.node_dims)
    # Looked up on the module so a traced run sees its wrapper.
    return speedup.evaluate_system(snapshots, decomposition,
                                   engine.field.cutoff)


def _water_check(state: _Water, result) -> List[str]:
    reduction = result.traffic_reduction(FULL.label)
    if not within_band(reduction, PAPER_INZ_PCACHE_REDUCTION_RANGE,
                       slack=FIG9_SLACK):
        return [f"INZ+pcache reduction {reduction:.4f} outside the Figure 9 "
                f"band {PAPER_INZ_PCACHE_REDUCTION_RANGE} "
                f"(slack {FIG9_SLACK})"]
    return []


def _water_record(state: _Water, result) -> dict:
    return {
        "atoms": result.atom_count,
        "configs": {label: {"total_bits": outcome.total_bits,
                            "mean_step_ns": outcome.mean_step_ns,
                            "pcache_hit_rates": outcome.pcache_hit_rates}
                    for label, outcome in result.outcomes.items()},
    }


WATER = Workload(
    name="water-compression",
    sizes={
        "paper": dict(n_atoms=4096, steps=7, node_dims=(2, 2, 2)),
        "tiny": dict(n_atoms=512, steps=5, node_dims=(2, 2, 2)),
    },
    setup=_water_setup,
    run=_water_run,
    check=_water_check,
    record=_water_record,
)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (OPENLOOP, PHASELOOP, WATER)}
