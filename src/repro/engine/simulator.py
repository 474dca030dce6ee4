"""Discrete-event simulator kernel.

All network simulations in this package run on :class:`Simulator`.  Time is
measured in nanoseconds (float); components that think in clock cycles
convert via their chip configuration.  The kernel is deliberately small:
an event heap, a current time, and a run loop with step/time limits.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from .events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.at(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        # The hot path pushes onto the queue's heap directly.
        self._heap = self._queue._heap
        self._next_seq = self._queue._counter.__next__
        self._now = 0.0
        self._events_processed = 0
        self._stop_requested = False

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
        return len(self._queue)

    def at(self, time: float, action: Callable[[], None],
           priority: int = 0, tag: Any = None) -> Event:
        """Schedule ``action`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} ns; now is {self._now} ns")
        seq = self._next_seq()
        event = Event(time, priority, seq, action, tag)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def after(self, delay: float, action: Callable[[], None],
              priority: int = 0, tag: Any = None) -> Event:
        """Schedule ``action`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        seq = self._next_seq()
        event = Event(time, priority, seq, action, tag)
        heappush(self._heap, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.action()
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or event budget.

        An event at exactly ``until`` fires; when the next live event lies
        beyond it, the clock stops at ``until``.  ``until`` before
        :attr:`now` raises :class:`SimulationError`: the clock never runs
        backwards.  Cancelled events are dropped uncounted.

        Returns the simulation time when the loop stopped.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} ns; now is {self._now} ns")
        heap = self._heap
        horizon = inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        processed = 0
        self._stop_requested = False
        try:
            while heap and not self._stop_requested:
                entry = heappop(heap)
                event = entry[3]
                if event.cancelled:
                    continue
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
                event.action()
        finally:
            self._events_processed += processed
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run to completion with a safety budget against livelock."""
        end = self.run(max_events=max_events)
        if self._queue.peek_time() is not None:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events")
        return end

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def reset(self) -> None:
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
