"""Reproduction of *TAP: A Novel Tunneling Approach for Anonymity in
Structured P2P Systems* (Zhu & Hu, ICPP 2004).

The package rebuilds the paper's full stack in Python:

* :mod:`repro.pastry` — the Pastry structured overlay (FreePastry 1.3
  equivalent: prefix routing, leaf sets, join/leave/failure);
* :mod:`repro.past` — PAST storage with k-closest replication;
* :mod:`repro.crypto` — layered (onion) encryption, hashing, RSA;
* :mod:`repro.simnet` — discrete-event network simulator (latency,
  bandwidth, message delivery);
* :mod:`repro.core` — TAP itself: tunnel hop anchors, anonymous
  deployment, fault-tolerant tunnels, reply tunnels, the §5 IP-hint
  optimisation, and anonymous file retrieval;
* :mod:`repro.baselines` — "current tunneling" (fixed-node paths) and
  Crowds, the paper's comparison points;
* :mod:`repro.adversary` — tunnel failure, collusion, and timing models;
* :mod:`repro.analysis` — vectorised Monte-Carlo id-space model,
  anonymity metrics, and closed-form cross-checks;
* :mod:`repro.experiments` — one module per figure of the paper;
* :mod:`repro.obs` — observability: metrics registry, structured
  event traces, and the invariant auditor.

Entry point for most users::

    from repro import TapSystem
"""

from repro.core.system import TapSystem
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.core.node import TapNode
from repro.obs import EventTrace, InvariantAuditor, MetricsRegistry

__version__ = "1.1.0"

__all__ = [
    "TapSystem",
    "Tunnel",
    "ReplyTunnel",
    "TapNode",
    "MetricsRegistry",
    "EventTrace",
    "InvariantAuditor",
    "__version__",
]
