"""Discrete-event simulator kernel.

All network simulations in this package run on :class:`Simulator`.  Time is
measured in nanoseconds (float); components that think in clock cycles
convert via their chip configuration.  The kernel is deliberately small:
an event heap, a current time, and a run loop with time and event limits.

Heap entries are ``(time, seq, action)`` tuples.  The monotonically
increasing ``seq`` is unique, so events at the same time fire in the order
they were scheduled (FIFO) and tuple comparison never reaches ``action``;
that keeps every simulation in this package fully reproducible.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Callable, Iterator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a build or a run.

    Building a machine and running it allocate many long-lived objects and
    no cyclic garbage, so every collection those allocations would trigger
    scans a growing heap for nothing.  No class in this package defines
    ``__del__`` or holds weak references, so when a collection runs can
    never change a result.  The collector is re-enabled on exit only if it
    was enabled on entry, so a caller that turned it off keeps it off;
    nothing is frozen, so a dropped machine is still reclaimed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.at(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        5.0
        >>> fired
        [5.0]
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._next_seq = count().__next__
        self._now = 0.0
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Time and scheduling.
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events fired so far; a :meth:`run` adds its count on return."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; now is {self._now} ns")
        heappush(self._heap, (time, self._next_seq(), action))

    def after(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._heap, (self._now + delay, self._next_seq(), action))

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or event budget.

        An event at exactly ``until`` fires; when the next event lies
        beyond it, the clock stops at ``until``.  ``until`` before
        :attr:`now` raises :class:`SimulationError`: the clock never runs
        backwards.

        The loop runs with the cyclic GC paused (:func:`_gc_paused`).

        Returns the simulation time when the loop stopped.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} ns; now is {self._now} ns")
        heap = self._heap
        horizon = inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        processed = 0
        with _gc_paused():
            try:
                while heap:
                    entry = heappop(heap)
                    time = entry[0]
                    if time > horizon:
                        heappush(heap, entry)
                        self._now = until
                        break
                    if processed == budget:
                        heappush(heap, entry)
                        break
                    self._now = time
                    processed += 1
                    entry[2]()
            finally:
                self._events_processed += processed
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run to completion with a safety budget against livelock."""
        end = self.run(max_events=max_events)
        if self._heap:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events")
        return end
