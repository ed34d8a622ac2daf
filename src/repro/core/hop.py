"""What a tunnel hop node does with an arriving message (§3.5, §4).

The node numerically closest to an identifier either recognises it as a
``bid`` it is waiting on — a reply's last leg, :func:`match_reply` — or
looks the THA up *in its own store*, peels one layer with that key and
hands the rest on, :func:`serve_hop`.  Both are pure functions of the
node's local state and the message: no routing, no clock, no tracer, no
counters.  :class:`~repro.core.forwarding.TunnelForwarder` drives them
from the loop of its synchronous walk,
:class:`~repro.core.emulation.TapEmulation` from delivery events; how a
message reaches the next node, and what is traced and counted on the
way, is all that stays per driver.

No result hierarchy: a :class:`~repro.crypto.onion.PeeledLayer` already
says relay or tail (``is_exit``), a match is the
:class:`~repro.core.node.PendingReply` itself, and every failure is one
:class:`HopFailed`.
"""

from __future__ import annotations

from repro.core.node import PendingReply, TapNode
from repro.core.tha import tha_value_decode
from repro.crypto.onion import PeeledLayer, peel_layer
from repro.crypto.symmetric import CipherError
from repro.past.storage import StorageError
from repro.util.serialize import SerializationError


class HopFailed(RuntimeError):
    """The hop node could not serve the message; ``str()`` says why.

    ``outcome`` is ``"anchor_lost"`` (the closest node holds no
    replica, or one that does not decode), ``"decrypt_failed"`` (the
    layer does not open under the stored key) or ``"malformed"`` (it
    opens to what the direction forbids); ``counter`` names what a
    driver with a registry counts it under (``malformed``: nothing).
    """

    COUNTERS = {
        "anchor_lost": "tap.peel.anchor_lost",
        "decrypt_failed": "tap.peel.decrypt_failures",
    }

    def __init__(self, outcome: str, reason: str):
        super().__init__(reason)
        self.outcome = outcome
        self.counter = self.COUNTERS.get(outcome)


def match_reply(
    tap_registry: dict[int, TapNode], node_id: int, hop_id: int
) -> PendingReply | None:
    """The reply ``node_id`` is waiting on under ``hop_id``, if any (§4).

    Asked on every reply leg *before* serving it: the initiator holds no
    THA for its own ``bid``; to everyone else it is one more hopid.
    """
    tap = tap_registry.get(node_id)
    return tap.pending_replies.get(hop_id) if tap is not None else None


def serve_hop(store, node_id: int, hop_id: int, blob: bytes, reply: bool) -> PeeledLayer:
    """Local THA lookup plus one decryption at ``node_id`` (§3.5).

    ``store.storage_of(node_id)`` is the node's own disk: it holds a
    replica iff placement put one there.  ``reply`` says the onion came
    from ``build_reply_onion``, which never emits an EXIT layer: one
    inside it fails closed.
    """
    storage = store.storage_of(node_id)
    try:
        stored = storage.lookup(hop_id)
    except StorageError as exc:
        raise HopFailed(
            "anchor_lost",
            f"node {node_id:#x} is closest to hop {hop_id:#x} "
            f"but holds no THA replica (anchor lost)",
        ) from exc
    try:
        anchor = tha_value_decode(hop_id, stored.value)
    except SerializationError as exc:
        raise HopFailed(
            "anchor_lost",
            f"node {node_id:#x} holds a THA replica for hop {hop_id:#x} "
            f"that does not decode (anchor lost)",
        ) from exc
    try:
        peeled = peel_layer(anchor.key, blob)
    except (CipherError, SerializationError) as exc:
        raise HopFailed(
            "decrypt_failed", f"layer decryption failed at {node_id:#x}"
        ) from exc
    if reply and peeled.is_exit:
        raise HopFailed(
            "malformed", "EXIT-tagged layer inside a reply onion (malformed)"
        )
    return peeled
