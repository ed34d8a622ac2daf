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
from dataclasses import dataclass, field

from repro.core.forwarding import ForwardTrace, TunnelForwarder
from repro.core.node import PendingReply, TapNode
from repro.core.resilience import ResiliencePolicy
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey
from repro.crypto.hashing import random_key, sha1_id
from repro.crypto.onion import build_reply_onion, make_fake_onion
from repro.crypto.symmetric import CipherError, SymmetricKey
from repro.past.replication import ReplicatedStore
from repro.past.storage import StorageError
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


@dataclass
class RetrievalResult:
    """Everything observable about one anonymous retrieval."""

    success: bool
    content: bytes | None
    forward_trace: ForwardTrace
    reply_trace: ForwardTrace | None
    fid: int
    failure_reason: str | None = None
    #: the content is a last-known-good fallback, not a fresh retrieval
    #: (success=True but every attempt actually failed)
    degraded: bool = False
    meta: dict = field(default_factory=dict)

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
        #: fid -> last successfully retrieved content (the graceful-
        #: degradation cache behind :meth:`retrieve_resilient`)
        self._last_known_good: dict[int, bytes] = {}

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
    def _responder_serve(self, responder_id: int, payload: bytes) -> ForwardTrace | None:
        """R: look up the file, encrypt, send down the reply tunnel."""
        tr = self.forwarder.tracer
        cm = tr.span(
            "tap.respond", observer="exit", responder=responder_id
        ) if tr else nullcontext()
        with cm as span:
            try:
                fid, temp_public, first_hop, reply_blob = self._decode_request(payload)
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
            content: bytes = stored.value
            k_f = SymmetricKey(random_key(self.rng))
            sealed_file = k_f.seal(content)
            wrapped_key = temp_public.encrypt(k_f.key_bytes, self.rng)
            reply_payload = pack_fields(sealed_file, wrapped_key)
            return self.forwarder.send_reply(
                responder_id, first_hop, reply_blob, reply_payload
            )

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
            result = self._retrieve_impl(
                initiator, fid, forward_tunnel, reply_tunnel
            )
            if span is not None:
                span.set(success=result.success)
                if result.failure_reason:
                    span.set(error=result.failure_reason)
        return result

    def retrieve_resilient(
        self,
        initiator: TapNode,
        fid: int,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
        policy: ResiliencePolicy | None = None,
        reform=None,
    ) -> RetrievalResult:
        """Retrieve under a resilience policy: bounded retries with
        deterministic backoff and a last-known-good fallback.

        ``reform(failure_reason) -> (forward_tunnel, reply_tunnel)``,
        when given, is invoked between failed attempts so the caller
        can swap in fresh tunnels (the initiator owns tunnel formation,
        not this engine).  On exhaustion with ``policy.degraded_ok``,
        a previously retrieved copy of ``fid`` is served with
        ``degraded=True`` instead of a hard failure.

        The result's ``meta`` carries the resilience accounting:
        ``attempts``, ``recovered`` and (virtual) ``waited_s``.
        """
        policy = policy or ResiliencePolicy()
        waited = 0.0
        result: RetrievalResult | None = None
        for attempt in range(1 + policy.max_retries):
            if attempt:
                waited += policy.backoff_delay(attempt, self.rng)
            result = self.retrieve(initiator, fid, forward_tunnel, reply_tunnel)
            if result.success:
                self._last_known_good[fid] = result.content
                result.meta.update(
                    attempts=attempt + 1, recovered=attempt > 0,
                    waited_s=waited,
                )
                return result
            if reform is not None and attempt < policy.max_retries:
                forward_tunnel, reply_tunnel = reform(result.failure_reason)
        fallback = self._last_known_good.get(fid)
        if policy.degraded_ok and fallback is not None:
            result = RetrievalResult(
                True, fallback, result.forward_trace, result.reply_trace,
                fid, failure_reason=result.failure_reason, degraded=True,
            )
        result.meta.update(
            attempts=1 + policy.max_retries, recovered=False, waited_s=waited,
        )
        return result

    def _retrieve_impl(
        self,
        initiator: TapNode,
        fid: int,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
    ) -> RetrievalResult:
        temp_keys = RsaKeyPair.generate(self.rng, self.temp_key_bits)
        fake = make_fake_onion(self.rng)
        first_reply_hop, reply_blob = build_reply_onion(
            reply_tunnel.onion_layers(), reply_tunnel.bid, fake
        )

        received: list[bytes] = []
        initiator.register_pending(
            PendingReply(bid=reply_tunnel.bid, callback=received.append)
        )

        request = self._encode_request(fid, temp_keys.public, first_reply_hop, reply_blob)

        reply_traces: list[ForwardTrace] = []

        def deliver(responder_id: int, payload: bytes) -> None:
            reply = self._responder_serve(responder_id, payload)
            if reply is not None:
                reply_traces.append(reply)

        # The reply walk runs inside ``send`` (through ``deliver``), so
        # the registration is dead weight once it returns — or raises —
        # and a late or replayed walk to this bid must find nothing.
        try:
            forward = self.forwarder.send(
                initiator, forward_tunnel, destination_id=fid, payload=request, deliver=deliver
            )
        finally:
            initiator.pending_replies.pop(reply_tunnel.bid, None)
        reply = reply_traces[0] if reply_traces else None

        if not forward.success:
            return RetrievalResult(False, None, forward, reply, fid,
                                   failure_reason=f"forward: {forward.failure_reason}")
        if reply is None:
            return RetrievalResult(False, None, forward, None, fid,
                                   failure_reason="responder could not serve the request")
        if not reply.success or not received:
            reason = reply.failure_reason or "reply never reached initiator"
            return RetrievalResult(False, None, forward, reply, fid,
                                   failure_reason=f"reply: {reason}")

        try:
            sealed_file, wrapped_key = unpack_fields(received[0], count=2)
            k_f = SymmetricKey(temp_keys.decrypt(wrapped_key))
            content = k_f.open(sealed_file)
        except (SerializationError, RsaError, CipherError) as exc:
            return RetrievalResult(False, None, forward, reply, fid,
                                   failure_reason=f"decryption: {exc}")
        return RetrievalResult(True, content, forward, reply, fid)
