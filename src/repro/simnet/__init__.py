"""Discrete-event network simulation substrate.

The paper evaluates TAP "on a network emulation environment, through
which the instances of the node software communicate", with per-link
random latency approximating the Internet and 1.5 Mb/s links (§7.3).
This package provides the equivalent:

* :mod:`repro.simnet.events` — a deterministic discrete-event kernel
  (heap-based scheduler with a simulated clock);
* :mod:`repro.simnet.topology` — per-link latency/bandwidth models with
  O(1) memory (latencies are hash-derived on demand, so a 10^4-node
  all-pairs topology needs no N² table);
* :mod:`repro.simnet.transport` — the store-and-forward message/file
  transfer-time model;
* :mod:`repro.simnet.network` — a message-passing façade that delivers
  payloads to node handlers through the event kernel (and remembers
  the latency of the links its traffic reuses).
"""

from repro.simnet.events import Simulator, SimulationError
from repro.simnet.topology import Topology
from repro.simnet.transport import serialization_delay
from repro.simnet.network import SimNetwork

__all__ = [
    "Simulator",
    "SimulationError",
    "Topology",
    "serialization_delay",
    "SimNetwork",
]
