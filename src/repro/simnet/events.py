"""Deterministic discrete-event kernel.

A minimal simulation core: events run in ``(time, seq)`` order (FIFO
among simultaneous events, so runs are reproducible) and the clock only
moves forward.

An event is its heap entry, ``(time, seq, callback, args)``, and
nothing else: no handle is handed out and none is kept.  Every sift of
``heappush``/``heappop`` compares in C, and ``seq`` is unique per
simulator, so every comparison is decided at the second element at the
latest — the callback and its arguments are never compared.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (negative delays, running twice, …)."""


class Simulator:
    """Heap-based event loop with a simulated clock (seconds)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._running = False
        #: current simulated time in seconds; only :meth:`run` moves it
        self.now = 0.0
        self.processed_events = 0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``now + delay``."""
        if not delay >= 0:  # also NaN, which would silently break heap order
            raise SimulationError(f"negative or NaN delay {delay!r}")
        heappush(self._heap, (self.now + delay, next(self._seq), callback, args))

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
        horizon = math.inf if until is None else until
        stop = self.processed_events + (math.inf if max_events is None else max_events)
        try:
            while heap and self.processed_events < stop and not heap[0][0] > horizon:
                time, _, callback, args = heappop(heap)
                self.now = time
                self.processed_events += 1
                callback(*args)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def __len__(self) -> int:
        return len(self._heap)
