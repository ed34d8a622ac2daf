"""Tunnel health probing (paper §9: "TAP does not have a mechanism to
detect corrupted/malicious tunnels ... we hope to address these
issues").

A :class:`TunnelProber` loops an authenticated probe through a tunnel
back to its owner: the exit destination is a fresh identifier whose
numerically closest node is the initiator itself (the same trick as
the reply tunnel's ``bid``).  The probe payload is sealed under a key
only the owner knows, so the prober detects:

* **broken tunnels** — the probe never returns (hop anchor lost, all
  replicas dead);
* **active tampering** — the probe returns but fails authentication
  (a malicious hop modified, truncated or replayed it).

Passive collusion (§6's THA pooling) is *not* detectable by probing —
colluders forward faithfully — which is exactly why the paper's
remedy is periodic refresh (fresh anchors, a new tunnel, the old
anchors retired and deleted — :meth:`repro.core.system.TapSystem
.retire_tunnel`); the prober complements refresh by catching hard
failures immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.node import TapNode
from repro.core.tunnel import Tunnel
from repro.crypto.hashing import random_key
from repro.crypto.symmetric import CipherError, SymmetricKey


@dataclass
class ProbeReport:
    """Outcome of one end-to-end tunnel probe."""

    functional: bool
    tampered: bool = False
    returned: bool = False
    overlay_hops: int = 0
    underlying_hops: int = 0
    failure_reason: str | None = None
    meta: dict = field(default_factory=dict)


class TunnelProber:
    """Probes tunnels through the live forwarding engine."""

    def __init__(self, system):
        self.system = system
        self._probe_keys: dict[int, SymmetricKey] = {}

    def _owner_probe_key(self, owner: TapNode) -> SymmetricKey:
        key = self._probe_keys.get(owner.node_id)
        if key is None:
            rng = self.system.seeds.pyrandom("probe-key", owner.node_id)
            key = SymmetricKey(random_key(rng))
            self._probe_keys[owner.node_id] = key
        return key

    def probe(self, owner: TapNode, tunnel: Tunnel, sequence: int = 0) -> ProbeReport:
        """Send one authenticated loop-back probe through ``tunnel``."""
        probe_key = self._owner_probe_key(owner)
        loop_id = owner.make_bid(self.system.network.alive_ids)
        payload = probe_key.seal(
            b"probe" + sequence.to_bytes(8, "big") + loop_id.to_bytes(16, "big")
        )

        received: list[tuple[int, bytes]] = []
        trace = self.system.forwarder.send(
            owner,
            tunnel,
            destination_id=loop_id,
            payload=payload,
            deliver=lambda nid, data: received.append((nid, data)),
        )

        if not trace.success or not received:
            return ProbeReport(
                functional=False,
                failure_reason=trace.failure_reason or "probe never exited",
                overlay_hops=trace.overlay_hops,
                underlying_hops=trace.underlying_hops,
            )

        landed_on, data = received[0]
        if landed_on != owner.node_id:
            # The loop identifier resolved elsewhere (owner no longer
            # closest — e.g. heavy churn around its id).
            return ProbeReport(
                functional=False,
                returned=False,
                failure_reason="probe exited to a different node",
                overlay_hops=trace.overlay_hops,
                underlying_hops=trace.underlying_hops,
            )
        try:
            plain = probe_key.open(data)
            tampered = not (
                plain.startswith(b"probe")
                and plain[5:13] == sequence.to_bytes(8, "big")
            )
        except CipherError:
            tampered = True
        return ProbeReport(
            functional=True,
            tampered=tampered,
            returned=True,
            overlay_hops=trace.overlay_hops,
            underlying_hops=trace.underlying_hops,
        )
