"""Mutual anonymity: hidden services over TAP tunnels.

The paper's §8 cites work "aimed at mutual anonymity between an
initiator and a responder" as the neighbouring problem; TAP itself
only hides the initiator (§4's responder is a public PAST node).  This
extension composes TAP's own primitives into the full property —
both endpoints anonymous:

* a **provider** P forms an *inbound service tunnel* — structurally a
  reply tunnel, terminating at a ``bid`` only P recognises — and
  publishes a *service record* in the DHT under the service name:
  ``<entry hopid, tunnel blob, service public key>``.  The record
  names DHT keys, never P;
* a **requester** R fetches the record, encrypts its request (plus its
  own reply tunnel and a temporary response key) to the service key,
  and pushes it through R's *own forward tunnel*, whose exit hands the
  message to the service tunnel's entry hop;
* the request walks P's inbound tunnel (each hop one decryption) to P,
  which serves it and answers down R's reply tunnel.

P never learns R (the request arrives via R's tunnels); R never learns
P (the response leaves via P's tunnel; the record pins only hop ids).
Both tunnels inherit TAP's fault tolerance, so the hidden service
survives hop-node churn like any other TAP traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.forwarding import ForwardTrace
from repro.core.node import PendingReply, TapNode
from repro.core.retrieval import EnvelopeError, open_answer, seal_answer
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey
from repro.crypto.hashing import sha1_id
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


class ServiceError(RuntimeError):
    """Raised on malformed service records or failed publication."""


def service_id(name: bytes) -> int:
    """DHT key of a service record (hash of its public name)."""
    return sha1_id(b"tap-service", name)


@dataclass
class ServiceRecord:
    """The public, DHT-stored face of a hidden service."""

    entry_hop_id: int
    tunnel_blob: bytes
    public_key: RsaPublicKey

    def encode(self) -> bytes:
        return pack_fields(
            pack_int(self.entry_hop_id),
            self.tunnel_blob,
            self.public_key.to_bytes(),
        )

    @classmethod
    def decode(cls, blob: bytes) -> "ServiceRecord":
        try:
            hop_b, tunnel_blob, key_b = unpack_fields(blob, count=3)
            return cls(unpack_int(hop_b), tunnel_blob,
                       RsaPublicKey.from_bytes(key_b))
        except (SerializationError, RsaError, ValueError) as exc:
            raise ServiceError(f"malformed service record: {exc}") from exc


@dataclass
class HiddenService:
    """Provider-side state of one published hidden service."""

    name: bytes
    provider: TapNode
    inbound: ReplyTunnel
    keypair: RsaKeyPair
    handler: Callable[[bytes], bytes]
    served: int = 0
    record_key: int = 0
    meta: dict = field(default_factory=dict)


class MutualAnonymity:
    """Publish and call hidden services over a TapSystem."""

    def __init__(self, system):
        self.system = system
        self._rng: random.Random = system.seeds.pyrandom("mutual-anonymity")

    # ------------------------------------------------------------------
    # provider side
    # ------------------------------------------------------------------
    def publish_service(
        self,
        provider: TapNode,
        name: bytes,
        handler: Callable[[bytes], bytes],
        tunnel_length: int = 3,
    ) -> HiddenService:
        """Form the inbound tunnel, register the responder logic, and
        put the service record into the DHT."""
        inbound = self.system.form_reply_tunnel(provider, tunnel_length)
        keypair = RsaKeyPair.generate(
            self.system.seeds.pyrandom("service-key", provider.node_id, name), 512
        )
        entry_hop, blob = inbound.capsule(self._rng)
        service = HiddenService(
            name=name, provider=provider, inbound=inbound,
            keypair=keypair, handler=handler,
        )

        # The provider listens on its bid: every arriving request is
        # decrypted, served, and answered down the requester's tunnel.
        def on_request(payload: bytes) -> None:
            self._serve(service, payload)

        provider.register_pending(
            PendingReply(bid=inbound.bid, callback=on_request)
        )

        record = ServiceRecord(entry_hop, blob, keypair.public)
        key = service_id(name)
        self.system.store.insert(key, record.encode())
        service.record_key = key
        return service

    def withdraw_service(self, service: HiddenService) -> None:
        """Stop serving: release the provider's listener on the inbound
        ``bid`` and retire the inbound tunnel.  A call that still finds
        the record walks to a ``bid`` nobody awaits and fails closed."""
        service.provider.release_pending(service.inbound.bid)
        self.system.retire_tunnel(service.provider, service.inbound)

    def _serve(self, service: HiddenService, payload: bytes) -> None:
        try:
            plain = service.keypair.decrypt(payload)
            body, r_first_b, r_blob, r_key_b = unpack_fields(plain, count=4)
            r_first = unpack_int(r_first_b)
            response_key = RsaPublicKey.from_bytes(r_key_b)
        except (RsaError, SerializationError, ValueError):
            return  # undecipherable request: drop silently
        service.served += 1
        self.system.forwarder.send_reply(
            service.provider.node_id, r_first, r_blob,
            seal_answer(service.handler(body), response_key, self._rng),
        )

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def lookup(self, name: bytes) -> ServiceRecord:
        """Fetch and decode a service record from the DHT."""
        key = service_id(name)
        stored = self.system.store.fetch(key)
        return ServiceRecord.decode(stored.value)

    def call(
        self,
        requester: TapNode,
        name: bytes,
        body: bytes,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
    ) -> tuple[bytes | None, ForwardTrace]:
        """Invoke a hidden service with mutual anonymity.

        Returns ``(response_body | None, forward_trace)``; the trace
        covers the requester's leg (its forward tunnel to the service
        entry hop).
        """
        record = self.lookup(name)
        temp_keys = RsaKeyPair.generate(self._rng, 512)
        r_first, r_blob = capsule = reply_tunnel.capsule(self._rng)
        request_plain = pack_fields(
            body, pack_int(r_first), r_blob, temp_keys.public.to_bytes()
        )

        def hand_over(entry_node: int, payload: bytes) -> None:
            # The requester's exit hands the request to the service
            # tunnel's entry hop, which walks it inward to the provider;
            # the provider answers down the capsule it decrypts, so
            # nothing is sent from here.
            self.system.forwarder.send_reply(
                entry_node, record.entry_hop_id, record.tunnel_blob, payload
            )

        ex = self.system.forwarder.round_trip(
            requester, forward_tunnel, reply_tunnel, capsule,
            record.entry_hop_id,
            record.public_key.encrypt(request_plain, self._rng), hand_over,
        )
        if ex.received is None:
            return None, ex.forward
        try:
            return open_answer(ex.received, temp_keys), ex.forward
        except EnvelopeError:
            return None, ex.forward
