""""Current tunneling": anonymous paths bound to fixed nodes.

This is the baseline of Figure 2 — the tunnel construction of Crowds,
Tarzan and MorphMix as characterised by the paper: a sequence of
concrete relay nodes sharing symmetric keys with the initiator.  The
tunnel functions iff *every* relay is alive; a single failure breaks
it, because the path is defined by IP addresses, not by DHT keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.hashing import random_key
from repro.crypto.onion import OnionLayer, build_onion, peel_layer
from repro.crypto.symmetric import SymmetricKey


@dataclass
class FixedNodeTunnel:
    """A mix path over concrete relay node ids."""

    relay_ids: list[int]
    keys: list[SymmetricKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.relay_ids:
            raise ValueError("a tunnel needs at least one relay")
        if self.keys and len(self.keys) != len(self.relay_ids):
            raise ValueError("keys must parallel relays")

    def functions(self, is_alive) -> bool:
        """Alive-predicate check: every relay must be up."""
        return all(is_alive(nid) for nid in self.relay_ids)

    def onion_layers(self) -> list[OnionLayer]:
        if not self.keys:
            raise ValueError("tunnel formed without keys")
        # The "hop id" of a fixed tunnel *is* the relay's node id: the
        # address and the identity are welded together — exactly the
        # coupling TAP removes.
        return [OnionLayer(nid, key) for nid, key in zip(self.relay_ids, self.keys)]

    def send(
        self,
        destination_id: int,
        payload: bytes,
        is_alive,
    ) -> tuple[bool, int | None, bytes | None]:
        """Walk the onion relay by relay; any dead relay kills the message.

        Returns (success, destination, delivered_payload).
        """
        blob = build_onion(self.onion_layers(), destination_id, payload)
        for relay_id, key in zip(self.relay_ids, self.keys):
            if not is_alive(relay_id):
                return False, None, None
            peeled = peel_layer(key, blob)
            if peeled.is_exit:
                return True, peeled.next_id, peeled.inner
            blob = peeled.inner
        return False, None, None  # malformed: never reached exit


def form_fixed_tunnel(
    node_ids: list[int],
    length: int,
    rng: random.Random,
    with_keys: bool = True,
) -> FixedNodeTunnel:
    """Sample a uniform fixed-relay tunnel (distinct relays)."""
    if length > len(node_ids):
        raise ValueError(f"cannot pick {length} relays from {len(node_ids)} nodes")
    relays = rng.sample(node_ids, length)
    keys = (
        [SymmetricKey(random_key(rng)) for _ in relays] if with_keys else []
    )
    return FixedNodeTunnel(relays, keys)
