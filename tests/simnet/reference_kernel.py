"""Reference event kernel for the differential tests — test-only.

This is the kernel ``repro.simnet.events`` shipped before its heap
entries became ``(time, seq, event)`` tuples: a ``@dataclass(order=True)``
``Event`` compared through generated Python ``__lt__``, and a ``run``
that visits every event twice (``peek_time`` then ``step``).  It is kept
verbatim as the oracle ``test_kernel_differential`` drives side by side
with the shipped kernel; nothing outside ``tests/simnet`` may import it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.simnet.events import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence."""

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Heap-based event loop with a simulated clock (seconds)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.processed_events = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at ``now + delay``; returns a handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        event = Event(self._now + delay, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule at an absolute simulated time (must not be in the past)."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        return self.schedule(time - self._now, callback, *args)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Run one event.  Returns False when the queue is exhausted."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self.processed_events += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue (optionally bounded by time or event count).

        Returns the simulated time when the run stopped.  ``until``
        advances the clock to exactly that time even if the queue
        empties earlier, matching classic DES semantics.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={len(self)})"
