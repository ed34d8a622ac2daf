"""Anonymous mail with durable reply paths (the §1 email motivation).

"Another application is anonymous email systems.  Current tunneling
techniques may fail to route the reply back to the sender due to node
failures along the tunnel, while TAP can route the reply back to the
sender thanks to its robustness (... by using a reply tunnel T_r)."

The defining property of email is the *delay*: the reply happens long
after the send, when nodes on any recorded return path may have
churned away.  A fixed-node return path (remailer-style) dies with its
relays; a TAP reply tunnel names hop *ids*, each resolved to whatever
node currently holds the anchor — so the reply works as long as the
anchors' replica sets survive the intervening churn.

* :class:`AnonymousMail` delivers sender-anonymous messages to a
  recipient node's inbox; each envelope embeds the TAP reply blob;
* :meth:`AnonymousMail.reply` answers an envelope — possibly much
  later — down that blob;
* :class:`FixedReturnPath` is the remailer baseline for head-to-head
  durability experiments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.baselines.fixed_tunnel import FixedNodeTunnel, form_fixed_tunnel
from repro.core.forwarding import ForwardTrace
from repro.core.node import PendingReply, TapNode
from repro.core.retrieval import EnvelopeError, open_answer, seal_answer
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


@dataclass
class Envelope:
    """A delivered anonymous message plus its (opaque) return path."""

    envelope_id: int
    body: bytes
    reply_first_hop: int
    reply_blob: bytes
    response_key: RsaPublicKey
    replied: bool = False


@dataclass
class SentMail:
    """The sender's handle: matches the eventual reply, and owns the
    sender's registration under the reply tunnel's ``bid``."""

    envelope_id: int
    sender: TapNode
    reply_tunnel: ReplyTunnel
    temp_keys: RsaKeyPair
    responses: list[bytes] = field(default_factory=list)
    delivered: bool = False
    trace: ForwardTrace | None = None

    def release(self) -> None:
        """Stop awaiting replies to this mail: a reply walk that
        arrives afterwards fails closed, and the reply tunnel's ``bid``
        is free for another exchange."""
        self.sender.release_pending(self.reply_tunnel.bid)


class AnonymousMail:
    """Sender-anonymous mail over TAP tunnels."""

    def __init__(self, system):
        self.system = system
        self._rng: random.Random = system.seeds.pyrandom("anonmail")
        self._ids = itertools.count(1)
        #: application-layer inboxes: recipient node id -> envelopes
        self.inboxes: dict[int, list[Envelope]] = {}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        sender: TapNode,
        recipient_id: int,
        body: bytes,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
    ) -> SentMail:
        """Deliver ``body`` to the recipient's inbox anonymously.

        The envelope carries the reply tunnel's entry hop and blob plus
        a temporary response key; the sender keeps a pending-reply
        registration alive so the answer can arrive any time later —
        until :meth:`SentMail.release`.
        """
        envelope_id = next(self._ids)
        temp_keys = RsaKeyPair.generate(self._rng, 512)
        first_hop, blob = reply_tunnel.capsule(self._rng)
        mail = SentMail(envelope_id, sender, reply_tunnel, temp_keys)

        def on_response(payload: bytes) -> None:
            try:
                mail.responses.append(open_answer(payload, temp_keys))
            except EnvelopeError:
                pass  # corrupted response: ignored

        # Long-lived registration: replies may arrive after churn.
        sender.register_pending(
            PendingReply(bid=reply_tunnel.bid, callback=on_response)
        )

        payload = pack_fields(
            pack_int(envelope_id, width=8),
            body,
            pack_int(first_hop),
            blob,
            temp_keys.public.to_bytes(),
        )

        def deliver(node_id: int, data: bytes) -> None:
            if node_id != recipient_id:
                return
            try:
                eid_b, body_, hop_b, blob_, key_b = unpack_fields(data, count=5)
                envelope = Envelope(
                    envelope_id=unpack_int(eid_b, width=8),
                    body=body_,
                    reply_first_hop=unpack_int(hop_b),
                    reply_blob=blob_,
                    response_key=RsaPublicKey.from_bytes(key_b),
                )
            except (SerializationError, RsaError, ValueError):
                return
            self.inboxes.setdefault(node_id, []).append(envelope)
            mail.delivered = True

        mail.trace = self.system.forwarder.send(
            sender, forward_tunnel, destination_id=recipient_id,
            payload=payload, deliver=deliver,
        )
        return mail

    # ------------------------------------------------------------------
    # replying (possibly long after, possibly after churn)
    # ------------------------------------------------------------------
    def reply(self, recipient_id: int, envelope: Envelope, body: bytes) -> ForwardTrace:
        """Answer an envelope down its embedded TAP reply tunnel."""
        trace = self.system.forwarder.send_reply(
            recipient_id,
            envelope.reply_first_hop,
            envelope.reply_blob,
            seal_answer(body, envelope.response_key, self._rng),
        )
        envelope.replied = trace.success
        return trace

    def inbox(self, node_id: int) -> list[Envelope]:
        return self.inboxes.get(node_id, [])


@dataclass
class FixedReturnPath:
    """Remailer baseline: the return path is a list of concrete nodes.

    The reply succeeds iff every recorded relay is still alive at
    reply time — the §1 failure mode TAP's reply tunnels avoid.
    """

    tunnel: FixedNodeTunnel

    @classmethod
    def record(cls, node_ids: list[int], length: int, rng: random.Random) -> "FixedReturnPath":
        return cls(form_fixed_tunnel(node_ids, length, rng, with_keys=True))

    def reply(self, sender_id: int, body: bytes, is_alive) -> bool:
        ok, _, _ = self.tunnel.send(sender_id, body, is_alive)
        return ok
