"""Simulation runs pause the cyclic GC, and leave no cyclic garbage.

``Simulator.run`` runs its event loop with the collector paused, as
``NetworkMachine`` does its build (``tests/test_netsim_machine_build.py``).
These checks pin that the pause is scoped: the caller's GC state comes
back however the run ends, and nothing is frozen.  A paused run never
frees cyclic garbage, so the second half pins that runs make none: after
each kind of run, with its machine still alive, a collection finds
nothing to free.
"""

import gc

import pytest

from repro.engine import Simulator
from repro.faults import FaultEvent, FaultSchedule
from repro.netsim import MachineConfig, NetworkMachine
from repro.observe.config import ObserveConfig
from repro.traffic import OpenLoopHarness
from repro.traffic.patterns import make_pattern
from repro.workload import (FixedWindowHarness, PhaseLoopHarness,
                            md_timestep_phases)


@pytest.fixture
def gc_state():
    """Restores the collector's state whatever the test did to it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _sim_recording_gc_state():
    """A simulator with one event that records whether GC was enabled."""
    sim = Simulator()
    seen = []
    sim.at(1.0, lambda: seen.append(gc.isenabled()))
    return sim, seen


class TestRunPausesGc:
    def test_enabled_gc_is_paused_then_enabled_again(self, gc_state):
        gc.enable()
        sim, seen = _sim_recording_gc_state()
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_gc_stays_disabled(self, gc_state):
        gc.disable()
        sim, seen = _sim_recording_gc_state()
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()

    def test_raising_event_restores_gc(self, gc_state):
        gc.enable()
        sim = Simulator()

        def fail():
            raise RuntimeError("boom")

        sim.at(1.0, fail)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()
        # The event that raised still counts as processed.
        assert sim.events_processed == 1

    def test_run_freezes_nothing(self, gc_state):
        gc.enable()
        frozen = gc.get_freeze_count()
        sim, __ = _sim_recording_gc_state()
        sim.run()
        assert gc.get_freeze_count() == frozen


def _machine(**overrides) -> NetworkMachine:
    config = dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=3)
    config.update(overrides)
    return NetworkMachine(config=MachineConfig(**config))


def _open_loop(machine):
    OpenLoopHarness(machine, make_pattern("uniform", machine.torus), 0.5,
                    seed=3, read_fraction=0.25, warmup_ns=50.0,
                    measure_ns=100.0, drain_ns=2000.0).run()


def _phase_loop(machine):
    phases = md_timestep_phases(machine, messages_per_node=6, window=2,
                                pattern="uniform", read_fraction=0.5)
    PhaseLoopHarness(machine, phases, seed=3).run(2)


def _closed_loop(machine):
    FixedWindowHarness(machine, make_pattern("uniform", machine.torus), 2,
                       seed=3, read_fraction=0.25, warmup_ns=50.0,
                       measure_ns=100.0).run()


_DEAD_LINK = FaultSchedule((FaultEvent(kind="dead-link", node=(0, 0, 0),
                                       axis=0),))

#: name -> (machine overrides, workload run on it).
RUNS = {
    "open-loop": ({}, _open_loop),
    "phase-loop-reads-fences": ({"routing": "adaptive-escape"}, _phase_loop),
    "closed-loop": ({}, _closed_loop),
    "faulted-open-loop": ({"dims": (3, 2, 2), "routing": "adaptive-escape",
                           "faults": _DEAD_LINK}, _open_loop),
    "observed-phase-loop": ({"observe": ObserveConfig(trace=True)},
                            _phase_loop),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_leaves_no_cyclic_garbage(name, gc_state):
    overrides, workload = RUNS[name]
    machine = _machine(**overrides)
    gc.collect()
    # Off for the whole workload, so no automatic collection after a run
    # can free its garbage before the count below.
    gc.disable()
    workload(machine)
    assert machine.sim.events_processed > 0
    # The machine is still referenced: only the run's own garbage counts.
    assert gc.collect() == 0
