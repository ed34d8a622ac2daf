"""Layered (mix-style) message construction and peeling.

Implements the paper's message formats:

* Forward tunnel (§2, Fig. 1):  ``{h2, {h3, {D, m}K3}K2}K1`` — each hop
  removes one layer, learns only the next hopid (and, with the §5
  optimisation, an IP hint), and the tail learns the destination.
* Reply tunnel (§4): ``{hid1,{hid2,{hid3,{bid, fakeonion}K3}K2}K1}`` —
  every layer, including the last, peels to a (next-id, blob) pair, so
  the tail hop cannot tell ``bid`` (which maps back to the initiator)
  from yet another tunnel hop: the ``fakeonion`` is indistinguishable
  from a further encrypted layer.

Wire format of one decrypted layer — four length-prefixed fields, of
which only the hint and the inner blob vary in length, so the first 29
bytes are one fixed header (``_HEADER``, big-endian)::

    offset  0        4     5        9           25       29      29+h     33+h
            +--------+-----+--------+-----------+--------+-------+--------+-------+
            | len=1  | tag | len=16 |  next_id  | len=h  | hint  | len=n  | inner |
            +--------+-----+--------+-----------+--------+-------+--------+-------+
              u32     R/E    u32      16 bytes    u32      h B     u32      n B

    RELAY ("R"): next_id = next hopid,       hint = its IP or empty, inner = residual onion
    EXIT  ("E"): next_id = destination id,   hint = empty,           inner = payload

The layout is what :func:`repro.util.serialize.pack_fields` produces
for ``(tag, id, hint, inner)``; it is written and read here directly.
A layer decodes only if both fixed length prefixes hold 1 and 16, the
tag is known and the fields end exactly where the plaintext does;
anything else is a :class:`~repro.crypto.symmetric.CipherError`.  Each
layer is sealed with its hop's :class:`~repro.crypto.symmetric.SymmetricKey`.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.crypto.symmetric import CipherError, SymmetricKey
from repro.util.serialize import SerializationError

TAG_RELAY = b"R"
TAG_EXIT = b"E"

#: len(tag)=1 | tag | len(id)=16 | id | len(hint)
_HEADER = struct.Struct(">I1sI16sI")
_LEN = struct.Struct(">I")

#: Documentation/test label for fabricated trailing onions; never
#: appears inside a fake onion (that would make it distinguishable).
FAKE_ONION_MAGIC = "fakeonion"


@dataclass(frozen=True)
class OnionLayer:
    """One hop's view needed to *build* a layer: its id and key.

    ``ip_hint`` carries the §5 optimisation: the believed IP address of
    the *next* layer's tunnel hop node (empty string = basic mode).
    """

    hop_id: int
    key: SymmetricKey
    ip_hint: str = ""


@dataclass(slots=True)
class PeeledLayer:
    """Result of removing one layer of encryption at a tunnel hop.

    Slotted, not frozen: one is built per peel and nothing assigns to
    it, and a frozen dataclass's ``__init__`` costs ~3.8× a slotted one.
    """

    is_exit: bool
    next_id: int  # next hopid (relay) or destination id (exit)
    ip_hint: str  # §5 shortcut for the next hop ("" in basic mode)
    inner: bytes  # remaining onion (relay) or application payload (exit)


def _encode_layer(tag: bytes, next_id: int, ip_hint: str, inner: bytes) -> bytes:
    hint = ip_hint.encode()
    try:
        return b"".join((
            _HEADER.pack(1, tag, 16, next_id.to_bytes(16, "big"), len(hint)),
            hint,
            _LEN.pack(len(inner)),
            inner,
        ))
    except (OverflowError, struct.error) as exc:
        raise SerializationError(f"onion layer field does not fit its frame: {exc}") from exc


def _decode_layer(plaintext: bytes) -> PeeledLayer:
    # Only the surviving pieces (hint string, inner blob) are
    # materialised, so a peel copies the residual onion once.
    total = len(plaintext)
    try:
        tag_len, tag, id_len, id_bytes, hint_len = _HEADER.unpack_from(plaintext)
    except struct.error as exc:
        raise CipherError("malformed onion layer: truncated header") from exc
    if tag_len != 1 or id_len != 16:
        raise CipherError("malformed onion layer: bad tag or id length")
    inner_at = _HEADER.size + hint_len + _LEN.size
    if inner_at > total:
        raise CipherError("malformed onion layer: hint overruns buffer")
    if inner_at + _LEN.unpack_from(plaintext, inner_at - _LEN.size)[0] != total:
        raise CipherError("malformed onion layer: inner blob does not end the buffer")
    if tag != TAG_RELAY and tag != TAG_EXIT:
        raise CipherError(f"unknown onion layer tag {tag!r}")
    try:
        hint = plaintext[_HEADER.size:inner_at - _LEN.size].decode() if hint_len else ""
    except UnicodeDecodeError as exc:
        raise CipherError(f"malformed onion layer: {exc}") from exc
    return PeeledLayer(
        tag == TAG_EXIT, int.from_bytes(id_bytes, "big"), hint, plaintext[inner_at:]
    )


def build_onion(layers: list[OnionLayer], destination_id: int, payload: bytes) -> bytes:
    """Construct a forward-tunnel onion ``{h2,{h3,{D, m}K3}K2}K1``.

    ``layers`` are ordered first hop → tail.  The returned blob is what
    the initiator sends to the tunnel hop node of ``layers[0]``; it is
    sealed under ``layers[0].key``.
    """
    if not layers:
        raise ValueError("a tunnel needs at least one hop")
    # Innermost layer: the tail learns the destination and message.
    blob = layers[-1].key.seal(_encode_layer(TAG_EXIT, destination_id, "", payload))
    # Wrap outward.  Layer i carries the id (and optional IP hint) of
    # layer i+1; the hint stored on OnionLayer i+1 describes *its own*
    # node, which is what layer i needs to reveal.
    for i in range(len(layers) - 2, -1, -1):
        nxt = layers[i + 1]
        blob = layers[i].key.seal(_encode_layer(TAG_RELAY, nxt.hop_id, nxt.ip_hint, blob))
    return blob


def build_reply_onion(
    layers: list[OnionLayer],
    bid: int,
    fake_onion: bytes,
) -> tuple[int, bytes]:
    """Construct the reply tunnel ``T_r`` of §4.

    Returns ``(first_hop_id, blob)``: the responder learns the first
    reply hop's id in the clear (it must know where to send), and the
    blob peels one RELAY layer per hop.  The innermost layer reveals
    ``(bid, fake_onion)`` — ``bid`` is an id whose numerically closest
    node is the initiator, and ``fake_onion`` is padding that looks
    like one more encrypted layer, so the tail cannot tell it is last.
    """
    if not layers:
        raise ValueError("a reply tunnel needs at least one hop")
    if not fake_onion:
        raise ValueError("fake_onion must be non-empty (tail distinguishability)")
    blob = layers[-1].key.seal(_encode_layer(TAG_RELAY, bid, "", fake_onion))
    for i in range(len(layers) - 2, -1, -1):
        nxt = layers[i + 1]
        blob = layers[i].key.seal(_encode_layer(TAG_RELAY, nxt.hop_id, nxt.ip_hint, blob))
    return layers[0].hop_id, blob


def peel_layer(key: SymmetricKey, blob: bytes) -> PeeledLayer:
    """Remove one layer of encryption — the per-hop operation."""
    return _decode_layer(key.open(blob))


def make_fake_onion(rng: random.Random, approx_layers: int = 2, payload_size: int = 64) -> bytes:
    """Random bytes sized like ``approx_layers`` residual onion layers.

    Purely random (no structure, no magic marker): a tail hop that
    tries to treat it as a further layer simply fails to decrypt, the
    same observable outcome as a real layer sealed under a key the hop
    does not have.
    """
    size = payload_size
    per_layer = SymmetricKey.overhead() + 4 * 4 + 1 + 16  # seal + framing + tag + id
    size += approx_layers * per_layer
    return rng.getrandbits(8 * size).to_bytes(size, "big")
