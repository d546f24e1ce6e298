"""Test-only event-calendar simulation core.

A deliberately small kernel: events are ``(time, priority, seq)``
triples on a binary heap, with a monotone sequence number guaranteeing a
deterministic total order (FIFO among simultaneous events of equal
priority).  The heap-calendar queueing oracles in ``queueing_oracles.py``
run on it; the library's own simulators use flat loops instead.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "EventQueue", "Simulator"]


@dataclass(order=True)
class Event:
    """A scheduled event.

    Ordering is by ``(time, priority, seq)``: earlier times first, then lower
    ``priority`` values, then insertion order. The payload is a zero-argument
    callable (``action``).
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Lazy deletion keeps the heap O(log n) per operation.
        """
        self.cancelled = True


class EventQueue:
    """A binary-heap event calendar with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` at ``time``; returns the Event (cancellable)."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        ev = Event(time=time, priority=priority, seq=next(self._counter), action=action)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event | None:
        """Pop the next non-cancelled event, or ``None`` when empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                return ev
        return None

    def peek_time(self) -> float:
        """Time of the next live event (inf when empty)."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else math.inf

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() != math.inf


class Simulator:
    """Simulation clock + event loop.

    Subclass or compose: schedule events with :meth:`schedule` (relative
    delay) or :meth:`schedule_at` (absolute time) and drive with :meth:`run`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events = EventQueue()
        self._event_count = 0

    def schedule(self, delay: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.events.push(self.now + delay, action, priority)

    def schedule_at(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` at absolute time ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.events.push(max(time, self.now), action, priority)

    def run(self, until: float = math.inf, max_events: int | None = None) -> None:
        """Process events in order until the horizon, event budget, or an
        empty calendar. The clock is left at the last processed event time
        (or at ``until`` if the horizon was hit and is finite)."""
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                return
            t = self.events.peek_time()
            if t > until:
                if math.isfinite(until):
                    self.now = until
                return
            ev = self.events.pop()
            if ev is None:
                return
            self.now = ev.time
            ev.action()
            self._event_count += 1
            processed += 1

    @property
    def event_count(self) -> int:
        """Total number of events processed over the simulator's lifetime."""
        return self._event_count
