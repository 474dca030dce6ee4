"""Machine construction pauses the cyclic GC, and only construction.

Building a machine allocates long-lived objects and no garbage, so
``NetworkMachine`` builds its chips and channels with the collector
paused.  These checks pin that the pause is scoped: the caller's GC
state comes back however the build ends, and a dropped machine is still
reclaimed.
"""

import gc
import weakref

import pytest

from repro.netsim import MachineConfig, NetworkMachine
from repro.netsim.fabric import FabricError

SMALL = MachineConfig(dims=(2, 1, 1), chip_cols=6, chip_rows=6)


@pytest.fixture
def gc_state():
    """Restores the collector's state whatever the test did to it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_enabled_gc_is_enabled_after_build(gc_state):
    gc.enable()
    NetworkMachine(config=SMALL)
    assert gc.isenabled()


def test_disabled_gc_stays_disabled(gc_state):
    gc.disable()
    NetworkMachine(config=SMALL)
    assert not gc.isenabled()


def test_failed_build_restores_gc(gc_state):
    gc.enable()
    # Three rows cannot host the Edge Network's six direction rows.
    with pytest.raises(FabricError):
        NetworkMachine(config=MachineConfig(dims=(1, 1, 1), chip_cols=4,
                                            chip_rows=3))
    assert gc.isenabled()


def test_build_freezes_nothing(gc_state):
    gc.enable()
    frozen = gc.get_freeze_count()
    NetworkMachine(config=SMALL)
    assert gc.get_freeze_count() == frozen


def _dropped_machine():
    """Weak references to a used, dropped machine and to one of its chips.

    A chip sits in reference cycles (its networks point back at it), so
    only the cyclic collector can free it.
    """
    machine = NetworkMachine(config=SMALL)
    machine.send_counted_write((0, 0, 0), machine.random_gc_address(),
                               (1, 0, 0), machine.random_gc_address())
    machine.run()
    return weakref.ref(machine), weakref.ref(machine.chip((0, 0, 0)))


def test_dropped_machine_is_reclaimed(gc_state):
    gc.enable()
    refs = _dropped_machine()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
