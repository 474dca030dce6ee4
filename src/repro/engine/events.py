"""Event heap for the discrete-event simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The monotonically
increasing sequence number guarantees deterministic FIFO ordering among
events scheduled for the same time and priority, which keeps every
simulation in this package fully reproducible.

Heap entries are ``(time, priority, seq, event)`` tuples.  ``seq`` is
unique, so tuple comparison settles every order in C and never reaches
the :class:`Event` itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback; the handle :meth:`EventQueue.push` returns.

    Attributes:
        time: Simulation time (ns in this package) at which to fire.
        priority: Lower fires first among same-time events.
        seq: Tie-breaker preserving scheduling order.
        action: Zero-argument callable run when the event fires.
        tag: Free-form label for the scheduler's own use.
        cancelled: Cancelled events are skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "action", "tag", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], None], tag: Any = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.tag = tag
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, cancelled={self.cancelled!r})")


#: One heap entry: ``(time, priority, seq, event)``.
HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """A deterministic min-heap of ``(time, priority, seq, event)``."""

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        tag: Any = None,
    ) -> Event:
        """Schedule ``action`` at absolute ``time``; returns a cancel handle."""
        seq = next(self._counter)
        event = Event(time, priority, seq, action, tag)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or None if the queue drains."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def clear(self) -> None:
        self._heap.clear()
