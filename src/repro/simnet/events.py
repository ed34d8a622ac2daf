"""Deterministic discrete-event kernel.

A minimal but complete simulation core: events run in ``(time, seq)``
order (FIFO among simultaneous events, so runs are reproducible),
events may be cancelled, and the clock only moves forward.

The heap holds ``(time, seq, event)`` tuples, so every sift of
``heappush``/``heappop`` compares in C.  ``seq`` is unique per
simulator, which decides every comparison at the second element at the
latest: the :class:`Event` in the third slot is never compared and
needs no ordering of its own — it is the handle a caller keeps to
cancel.  Cancellation is lazy: a cancelled entry stays in the heap and
is discarded when it reaches the head.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (negative delays, running twice, …)."""


@dataclass(slots=True, eq=False)
class Event:
    """Handle of a scheduled callback: due at ``time``, ``seq``-th scheduled."""

    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Heap-based event loop with a simulated clock (seconds)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
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
        if not delay >= 0:  # also NaN, which would silently break heap order
            raise SimulationError(f"negative or NaN delay {delay!r}")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule at an absolute simulated time (must not be in the past)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}: before now {self._now!r}, or NaN"
            )
        return self.schedule(time - self._now, callback, *args)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run one event.  Returns False when the queue is exhausted."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = time
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
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                self.processed_events += 1
                executed += 1
                event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)
