"""Anonymous file retrieval — the §4 sample application, end to end.

Flow (all crypto real, all routing over live overlay state):

1. The initiator ``I`` forms a forward tunnel ``T_f`` and a reply
   tunnel ``T_r`` (with a ``bid`` closest to itself and a fakeonion).
2. ``I`` generates a temporary key pair ``K_I`` and sends
   ``{hid2,{hid3,{fid, K_I, T_r}K3}K2}K1`` into ``T_f``.
3. The tail reveals the request and routes it to the responder ``R``
   (the node closest to ``fid``), which holds the file replica.
4. ``R`` picks a fresh symmetric key ``K_f``, sends ``{f}K_f``,
   ``{K_f}K_I`` and the (first-hop-stripped) reply tunnel back.
5. Each reply hop peels one layer; the last identifier is ``bid``,
   recognised only by ``I``, which unwraps ``K_f`` and then ``f``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.forwarding import ForwardTrace, TunnelForwarder
from repro.core.node import TapNode
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey
from repro.crypto.hashing import random_key, sha1_id
from repro.crypto.symmetric import SymmetricKey
from repro.past.replication import ReplicatedStore
from repro.past.storage import StorageError
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_fields_view,
    unpack_int,
)


class EnvelopeError(ValueError):
    """An answer envelope that does not open under the temporary key."""


def seal_answer(body: bytes, response_key: RsaPublicKey, rng: random.Random) -> bytes:
    """Step 4, the responder's side: ``{body}K_f ‖ {K_f}K_I``."""
    k_f = SymmetricKey(random_key(rng))
    sealed = k_f.seal(body)
    return pack_fields(sealed, response_key.encrypt(k_f.key_bytes, rng))


def open_answer(payload: bytes, temp_keys: RsaKeyPair) -> bytes:
    """Step 5, the initiator's side; malformed, wrapped for another key
    or tampered with all raise :class:`EnvelopeError`, and so does a
    ``K_f`` too short to be a key.  The fields are views into
    ``payload``, so the sealed file is never copied before it opens."""
    try:
        sealed, wrapped = unpack_fields_view(payload, count=2)
        return SymmetricKey(temp_keys.decrypt(wrapped)).open(sealed)
    except ValueError as exc:  # Serialization/Rsa/CipherError, a short K_f
        raise EnvelopeError(str(exc)) from exc


@dataclass
class RetrievalResult:
    """Everything observable about one anonymous retrieval."""

    success: bool
    content: bytes | None
    forward_trace: ForwardTrace
    reply_trace: ForwardTrace | None
    fid: int
    failure_reason: str | None = None
    #: the tunnel the failure implicates: ``"forward"``, ``"reply"``, or
    #: ``None`` (a responder that could not serve, an answer that would
    #: not open — neither tunnel is broken)
    broken: str | None = None

    @property
    def total_underlying_hops(self) -> int:
        hops = self.forward_trace.underlying_hops
        if self.reply_trace is not None:
            hops += self.reply_trace.underlying_hops
        return hops


class AnonymousRetrieval:
    """Publish files into PAST and retrieve them anonymously via TAP."""

    def __init__(
        self,
        forwarder: TunnelForwarder,
        store: ReplicatedStore,
        rng: random.Random,
        temp_key_bits: int = 512,
    ):
        self.forwarder = forwarder
        self.store = store
        self.rng = rng
        self.temp_key_bits = temp_key_bits

    # ------------------------------------------------------------------
    # publishing (plain PAST)
    # ------------------------------------------------------------------
    def publish(self, content: bytes, name: bytes | None = None) -> int:
        """Insert a file; its fid is the hash of its name/content."""
        fid = sha1_id(name if name is not None else content)
        self.store.insert(fid, content)
        return fid

    # ------------------------------------------------------------------
    # the request message (what rides inside the forward onion)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_request(fid: int, temp_public: RsaPublicKey, first_reply_hop: int, reply_blob: bytes) -> bytes:
        return pack_fields(
            pack_int(fid),
            temp_public.to_bytes(),
            pack_int(first_reply_hop),
            reply_blob,
        )

    @staticmethod
    def _decode_request(payload: bytes) -> tuple[int, RsaPublicKey, int, bytes]:
        fid_b, key_b, hop_b, blob = unpack_fields(payload, count=4)
        return (unpack_int(fid_b), RsaPublicKey.from_bytes(key_b),
                unpack_int(hop_b), blob)

    # ------------------------------------------------------------------
    # the responder's work
    # ------------------------------------------------------------------
    def _responder_serve(self, responder_id: int, payload: bytes) -> bytes | None:
        """R: look up the file and seal it for ``K_I``; the exchange
        walks the answer down the reply capsule the request carried."""
        tr = self.forwarder.tracer
        cm = tr.span(
            "tap.respond", observer="exit", responder=responder_id
        ) if tr else nullcontext()
        with cm as span:
            try:
                fid, temp_public, _, _ = self._decode_request(payload)
            except (SerializationError, RsaError, ValueError):
                if span is not None:
                    span.set(error="malformed request")
                return None
            if span is not None:
                span.set(fid=fid)
            try:
                stored = self.store.storage_of(responder_id).lookup(fid)
            except StorageError:
                if span is not None:
                    span.set(error="file not held locally")
                return None
            return seal_answer(stored.value, temp_public, self.rng)

    # ------------------------------------------------------------------
    # the initiator's retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self,
        initiator: TapNode,
        fid: int,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
    ) -> RetrievalResult:
        tr = self.forwarder.tracer
        cm = tr.span(
            "tap.request", observer="initiator",
            initiator=initiator.node_id, fid=fid,
        ) if tr else nullcontext()
        with cm as span:
            temp_keys = RsaKeyPair.generate(self.rng, self.temp_key_bits)
            capsule = reply_tunnel.capsule(self.rng)
            ex = self.forwarder.round_trip(
                initiator, forward_tunnel, reply_tunnel, capsule, fid,
                self._encode_request(fid, temp_keys.public, *capsule),
                self._responder_serve,
            )
            content = reason = None
            if ex.broken == "forward":
                reason = f"forward: {ex.forward.failure_reason}"
            elif ex.reply is None:
                reason = "responder could not serve the request"
            elif ex.broken == "reply":
                reason = "reply: " + (ex.reply.failure_reason
                                      or "reply never reached initiator")
            else:
                try:
                    content = open_answer(ex.received, temp_keys)
                except EnvelopeError as exc:
                    reason = f"decryption: {exc}"
            if span is not None:
                span.set(success=reason is None)
                if reason:
                    span.set(error=reason)
        return RetrievalResult(
            reason is None, content, ex.forward, ex.reply, fid,
            failure_reason=reason, broken=ex.broken,
        )
