"""Classic Onion Routing over per-node public keys.

Serves two roles in the reproduction:

* a standalone baseline anonymity system (fixed core-set mixes with
  public-key layers, per Syverson et al.);
* the bootstrap vehicle of §3.3 — TAP nodes use an onion-routing
  session to deploy their first THAs anonymously
  (:mod:`repro.core.deploy` builds the instruction onions; this module
  provides the generic circuit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.node import TapNode
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


class OnionRoutingError(RuntimeError):
    """Raised when a circuit cannot be built or traversed."""


_EXIT_SENTINEL = 0


@dataclass
class OnionCircuit:
    """A public-key onion circuit over concrete TAP nodes."""

    relays: list[TapNode]

    def __post_init__(self) -> None:
        if not self.relays:
            raise OnionRoutingError("a circuit needs at least one relay")

    def wrap(self, destination_id: int, payload: bytes, rng: random.Random) -> bytes:
        """Layered RSA encryption, innermost layer for the last relay."""
        blob = pack_fields(pack_int(_EXIT_SENTINEL), pack_int(destination_id), payload)
        blob = self.relays[-1].keypair.public.encrypt(blob, rng)
        for i in range(len(self.relays) - 2, -1, -1):
            nxt = self.relays[i + 1]
            blob = self.relays[i].keypair.public.encrypt(
                pack_fields(pack_int(nxt.node_id), b"", blob), rng
            )
        return blob

    @staticmethod
    def peel(relay: TapNode, blob: bytes) -> tuple[bool, int, bytes]:
        """One relay's decryption.

        Returns ``(is_exit, next_or_destination_id, inner)``.
        """
        plain = relay.keypair.decrypt(blob)
        try:
            first, second, inner = unpack_fields(plain, count=3)
        except SerializationError as exc:
            raise OnionRoutingError(f"malformed onion at {relay.node_id:#x}") from exc
        head = unpack_int(first)
        if head == _EXIT_SENTINEL:
            return True, unpack_int(second), inner
        return False, head, inner

    def traverse(
        self,
        destination_id: int,
        payload: bytes,
        rng: random.Random,
        is_alive,
    ) -> tuple[bool, int | None, bytes | None]:
        """Build and walk the circuit; dead relays abort the session.

        This is the §3.3 failure mode: "if a node on the bootstrapping
        Onion path fails, the deploying process will be aborted".
        """
        blob = self.wrap(destination_id, payload, rng)
        for relay in self.relays:
            if not is_alive(relay.node_id):
                return False, None, None
            is_exit, ident, inner = self.peel(relay, blob)
            if is_exit:
                return True, ident, inner
            blob = inner
        raise OnionRoutingError("circuit ended before an exit layer")
