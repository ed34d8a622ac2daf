"""Message-passing façade over the event kernel.

Nodes register a handler; ``send`` schedules delivery after the link's
propagation + serialization delay.  Sends to a dead or unknown address
are silently dropped (like UDP into the void) unless the caller
registers a drop callback — TAP's fault-tolerance logic is exercised by
exactly these drops.

The fabric keeps a *link table*: the propagation latency of every
``(src, dst)`` it has sent over, filled from ``Topology.latency`` on
first use.  A latency is a pure function of (topology seed, pair), so
an entry is never stale; the only policy is the size valve
:data:`LINK_TABLE_LIMIT`, past which the table is cleared wholesale.
The table sits here and not in the latency model because only traffic
repeats itself — an overlay node sends to its leaf-set and
routing-table entries and to nobody else — whereas the model is also
asked for pairs that never recur (a proximity-aware overlay build
probes ~16 candidates per routing-table cell) and would only thrash a
memo of its own: ``topology``'s "compute over tabulate" stays true of
the model, and the fabric tabulates the few thousand links it reuses.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.simnet.events import Simulator
from repro.simnet.topology import Topology

Handler = Callable[["SimNetwork", int, int, Any], None]

#: Most links the fabric remembers the latency of (~180 B each); the
#: table is cleared wholesale when a new link would exceed it.
LINK_TABLE_LIMIT = 1 << 16


class SimNetwork:
    """Registry of addressable nodes on a shared simulator/topology."""

    def __init__(self, simulator: Simulator, topology: Topology):
        self.simulator = simulator
        self.topology = topology
        self._handlers: dict[int, Handler] = {}
        self._alive: dict[int, bool] = {}
        #: propagation latency of every link sent over (module docstring)
        self._link_latency: dict[tuple[int, int], float] = {}
        self.delivered_count = 0
        self.dropped_count = 0
        self.bits_sent = 0.0
        #: called as ``on_drop(src, dst, payload)`` when a message meets a
        #: dead or unknown address (not on an injected drop)
        self.on_drop: Callable[[int, int, Any], None] | None = None
        #: optional :class:`repro.faults.SimNetFaultInjector`; consulted
        #: per physical send when installed (see
        #: :meth:`repro.core.emulation.TapEmulation.install_faults`)
        self.faults = None

    # -- membership ----------------------------------------------------
    def attach(self, address: int, handler: Handler) -> None:
        """Register a node.  Re-attaching an address revives it."""
        self._handlers[address] = handler
        self._alive[address] = True

    def detach(self, address: int) -> None:
        """Remove a node entirely (leaves no tombstone)."""
        self._handlers.pop(address, None)
        self._alive.pop(address, None)

    def fail(self, address: int) -> None:
        """Mark a node dead without removing it (it can be revived)."""
        if address in self._alive:
            self._alive[address] = False

    def revive(self, address: int) -> None:
        if address in self._handlers:
            self._alive[address] = True

    def is_alive(self, address: int) -> bool:
        return self._alive.get(address, False)

    @property
    def addresses(self) -> list[int]:
        return [a for a, alive in self._alive.items() if alive]

    # -- messaging -----------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size_bits: float = 8 * 1024) -> None:
        """Schedule delivery of ``payload`` from ``src`` to ``dst``.

        Liveness is checked at *delivery* time, so a node failing while
        a message is in flight causes a drop — the situation TAP's
        replica fail-over must handle.  The message in flight is its
        delivery event, ``_deliver(src, dst, payload)``, and nothing else.
        """
        # The delay is propagation plus serialization, each input checked
        # (size, then latency, then bandwidth) before anything is counted.
        if not size_bits >= 0:  # also NaN
            raise ValueError("size must be non-negative")
        if src == dst:
            delay = 0.0
        else:
            link = (src, dst)
            latency = self._link_latency.get(link)
            if latency is None:
                latency = self._learn_link(link)
            bandwidth = self.topology.bandwidth_bps
            if bandwidth <= 0:
                raise ValueError("bandwidth must be positive")
            delay = latency + size_bits / bandwidth
        self.bits_sent += size_bits
        faults = self.faults
        if faults is not None:
            verdict = faults.on_message(src, dst, delay)
            if verdict is not None:
                if verdict.drop:
                    # Silent UDP-style loss: the message just never
                    # arrives.  Crucially this does NOT fire ``on_drop``
                    # (the dead-neighbour discovery path) — transient
                    # loss must not poison routing tables.  A marker event
                    # fires at the arrival time, so the event count is
                    # the same as for a message that arrives.
                    self.simulator.schedule(delay, self._drop_injected)
                    return
                delay += verdict.extra_delay_s
                if verdict.duplicate:
                    # A copy in its own right (taken before any damage
                    # below): a mutable payload must not let one copy's
                    # progress or corruption show through the other.
                    self.simulator.schedule(
                        delay + verdict.duplicate_gap_s, self._deliver,
                        src, dst, copy.copy(payload),
                    )
                if verdict.corrupt:
                    payload = faults.corrupt_payload(payload)
        self.simulator.schedule(delay, self._deliver, src, dst, payload)

    def _learn_link(self, link: tuple[int, int]) -> float:
        """Enter ``link``'s latency into the link table; returns it."""
        latency = self.topology.latency(*link)
        if latency < 0:
            raise ValueError("latency must be non-negative")
        table = self._link_latency
        if len(table) >= LINK_TABLE_LIMIT:
            table.clear()
        table[link] = latency
        return latency

    def _drop_injected(self) -> None:
        self.dropped_count += 1

    def _deliver(self, src: int, dst: int, payload: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is None or not self._alive.get(dst, False):
            self.dropped_count += 1
            if self.on_drop is not None:
                self.on_drop(src, dst, payload)
            return
        self.delivered_count += 1
        handler(self, src, dst, payload)
