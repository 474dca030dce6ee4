"""Golden digests for small runs through the simulator's hot path.

Each case builds a small machine on 6x6 chips, runs it to completion and
reduces what it produced to a canonical result digest
(:func:`repro.runner.cache.canonicalize` + :func:`config_digest`) plus
the exact number of kernel events.  The first five pins were computed
before the event hot path was rewritten, and ``saturated-openloop``
before links gained their idle-link fast path.  Two open loops run at
half load, so VC arbitration and credit stalls shape their results; the
saturated one offers 0.95 load of bit-complement traffic with remote
reads, so busy-link retries, credit stalls and round-robin over several
queued VCs do.  The two open loops with remote reads under ``valiant``
and ``fixed-xyz`` also pin the packets each channel VC carried: Valiant's
second phase rides request VCs 2 and 3, reads answer on the response
VC.  A change to the kernel, the links or the routers that
alters any result, or the number or order of events, fails here.  The
pinned values are never regenerated to make a change pass.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultEvent, FaultSchedule
from repro.fence import FenceEngine
from repro.netsim import MachineConfig, NetworkMachine
from repro.netsim.pingpong import PingPongHarness
from repro.runner.cache import canonicalize, config_digest
from repro.traffic import OpenLoopHarness
from repro.traffic.patterns import make_pattern
from repro.workload import PhaseLoopHarness, md_timestep_phases


def _machine(dims=(2, 2, 2), routing="randomized-minimal", seed=3,
             faults=None) -> NetworkMachine:
    return NetworkMachine(config=MachineConfig(
        dims=dims, chip_cols=6, chip_rows=6, seed=seed, routing=routing,
        faults=faults))


def _counts(machine: NetworkMachine) -> dict:
    return {
        "injected": {tc.value: n
                     for tc, n in machine.injected_counts().items()},
        "delivered": {tc.value: n
                      for tc, n in machine.delivered_counts().items()},
        "channel_flits": machine.total_channel_flits(),
    }


def _open_loop(machine: NetworkMachine, seed: int, pattern="uniform",
               load=0.5, read_fraction=0.0) -> dict:
    harness = OpenLoopHarness(
        machine, make_pattern(pattern, machine.torus), load, seed=seed,
        read_fraction=read_fraction, warmup_ns=50.0, measure_ns=100.0,
        drain_ns=2000.0)
    return {"result": harness.run().to_dict(), "machine": _counts(machine)}


def openloop_uniform():
    machine = _machine()
    return machine, _open_loop(machine, seed=3)


def saturated_openloop():
    machine = _machine(seed=6)
    return machine, _open_loop(machine, seed=6, pattern="bit-complement",
                               load=0.95, read_fraction=0.5)


def _policy_openloop_reads(routing: str):
    machine = _machine(routing=routing, seed=7)
    record = _open_loop(machine, seed=7, read_fraction=0.5)
    record["channel_vc_packets"] = machine.channel_vc_packets()
    return machine, record


def valiant_openloop_reads():
    return _policy_openloop_reads("valiant")


def fixed_xyz_openloop_reads():
    return _policy_openloop_reads("fixed-xyz")


def phaseloop_adaptive_reads():
    machine = _machine(routing="adaptive-escape")
    phases = md_timestep_phases(machine, messages_per_node=6, window=2,
                                pattern="uniform", read_fraction=0.5)
    result = PhaseLoopHarness(machine, phases, seed=3).run(2)
    return machine, {"result": result.to_dict(), "machine": _counts(machine)}


def dead_link_openloop():
    faults = FaultSchedule((FaultEvent(kind="dead-link", node=(0, 0, 0),
                                       axis=0),))
    machine = _machine(dims=(3, 2, 2), routing="adaptive-escape",
                       faults=faults)
    return machine, _open_loop(machine, seed=4)


def fig5_pingpong():
    machine = _machine(dims=(4, 2, 2))
    samples = PingPongHarness(machine, seed=5).latency_samples_vs_hops(
        max_hops=3, samples_per_hop=3)
    return machine, {"samples": samples, "machine": _counts(machine)}


def fence_barrier():
    machine = _machine(dims=(4, 2, 2))
    latency = FenceEngine(machine).barrier_latency(hops=2)
    return machine, {"barrier_ns": latency, "machine": _counts(machine)}


CASES = {
    "openloop-uniform": openloop_uniform,
    "phaseloop-adaptive-reads": phaseloop_adaptive_reads,
    "dead-link-openloop": dead_link_openloop,
    "fig5-pingpong": fig5_pingpong,
    "fence-barrier": fence_barrier,
    "saturated-openloop": saturated_openloop,
    "valiant-openloop-reads": valiant_openloop_reads,
    "fixed-xyz-openloop-reads": fixed_xyz_openloop_reads,
}

#: case -> (result digest, kernel events processed).
PINS = {
    "dead-link-openloop": (
        "bc9be905a5debbaa51eadddf5dc54db797c3f72a88eac58e23f4d84374ff6ed6",
        61586),
    "fence-barrier": (
        "8aae88eec936e0bc45b2253b8f42f45a4fc200197ecb407b85e361f7331eed04",
        8112),
    "fig5-pingpong": (
        "e3dadbb6d0eb07a83ce2195f914f8935d26da2f882b98fe301c62e012ddc88d8",
        1096),
    "openloop-uniform": (
        "d446fe60410457642559f608a924743c1244fa6cacaabcf7ecf45d7e86085f62",
        41618),
    "phaseloop-adaptive-reads": (
        "1d8247e58e313007d3f50597a3123bbb335a1150af59e1f09268c378b730f581",
        40053),
    "saturated-openloop": (
        "f389824bc3b9a8aaabc4bff1a79c7a411d89185628f9fe897e5547db7506d725",
        162130),
    "valiant-openloop-reads": (
        "232fbbdde8fc135fa6fb462be095ec018b5692d89a1016d0727773a08875aaa9",
        78934),
    "fixed-xyz-openloop-reads": (
        "2a0257713f9207a046958348be0ed646ab29e1189791258ea6bad2edbc3d5cfa",
        62634),
}


def run_case(name: str):
    """The (digest, events) pair of one case, computed afresh."""
    machine, record = CASES[name]()
    digest = config_digest(name, {"result": canonicalize(record)})
    return digest, machine.sim.events_processed


@pytest.mark.parametrize("name", sorted(CASES))
def test_hot_path_digest_is_pinned(name):
    assert run_case(name) == PINS[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(case)!r},")
