"""Tunnel Hop Anchors (THAs): ``<hopid, K, H(PW)>`` (paper §3.1–§3.2).

A THA anchors one tunnel hop in the DHT.  ``hopid`` is the storage
key; the value — a small "file" in PAST terms — carries the symmetric
key ``K`` used to peel one onion layer and the password hash ``H(PW)``
guarding deletion.

Generation is node-specific and unlinkable: ``hopid = H(node_ID, hkey,
t)`` where ``hkey`` is secret and ``t`` a timestamp, so no outsider can
recompute the hopid for a suspected node (§3.2).

A hop node holds its anchor for the life of the tunnel but is handed
the stored bytes again on every message.  Decoding them — two field
reads and priming a :class:`SymmetricKey` (one SHA-256 derivation, one
keyed AES-256-GCM context) — is a pure function of
immutable bytes, so :func:`tha_value_decode` memoises it: a hop decodes
an anchor once, the way an onion relay keeps per-circuit key state, not
once per message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto.hashing import (
    derive_hopid,
    hash_password,
    random_key,
    random_password,
)
from repro.crypto.symmetric import SymmetricKey
from repro.util.serialize import SerializationError, pack_fields, unpack_fields


@dataclass(frozen=True)
class TunnelHopAnchor:
    """The public (stored) part of an anchor: what replica nodes see."""

    hop_id: int
    key: SymmetricKey
    pw_hash: bytes

    def __post_init__(self) -> None:
        if len(self.pw_hash) != 32:
            raise ValueError("pw_hash must be a 32-byte SHA-256 digest")


@dataclass
class OwnedTha:
    """An anchor together with the owner-only secrets.

    Only the initiator holds the password ``pw`` (deletion proof) and
    the metadata below; what is deployed into the DHT is
    ``anchor`` alone.
    """

    anchor: TunnelHopAnchor
    pw: bytes
    created_at: int
    deployed: bool = False
    #: set while the anchor belongs to a formed tunnel; §4 requires
    #: request and reply tunnels to be built from different anchors.
    in_use: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def hop_id(self) -> int:
        return self.anchor.hop_id


def generate_tha(
    node_identifier: bytes,
    hkey: bytes,
    timestamp: int,
    rng: random.Random,
) -> OwnedTha:
    """Generate one node-specific anchor (§3.2).

    ``hopid`` comes from the keyed hash (collision-free across nodes,
    unlinkable to the generator); ``K`` and ``PW`` are fresh random
    bit-strings.
    """
    hop_id = derive_hopid(node_identifier, hkey, timestamp)
    key = SymmetricKey(random_key(rng))
    pw = random_password(rng)
    anchor = TunnelHopAnchor(hop_id, key, hash_password(pw))
    return OwnedTha(anchor=anchor, pw=pw, created_at=timestamp)


def tha_value_encode(anchor: TunnelHopAnchor) -> bytes:
    """Serialise the stored THA value ``K + H(PW)`` (the "file content")."""
    return pack_fields(anchor.key.key_bytes, anchor.pw_hash)


#: decoded anchors kept (~1 KiB each: the key's primed hash states)
_ANCHOR_CACHE_SIZE = 1024


@lru_cache(maxsize=_ANCHOR_CACHE_SIZE)
def _decode_anchor(hop_id: int, blob: bytes) -> TunnelHopAnchor:
    key_bytes, pw_hash = unpack_fields(blob, count=2)
    try:
        return TunnelHopAnchor(hop_id, SymmetricKey(key_bytes), pw_hash)
    except ValueError as exc:  # a key under 8 bytes, an H(PW) not 32
        raise SerializationError(f"malformed THA value: {exc}") from exc


def tha_value_decode(hop_id: int, blob) -> TunnelHopAnchor:
    """Parse a stored THA value (any bytes-like) back into an anchor.

    Memoised by content in one bounded LRU: a refreshed, bit-rotted or
    tampered value is a different entry, so nothing is ever
    invalidated, and a malformed value raises ``SerializationError`` on
    every call (exceptions are not cached).  Repeat decodes return the
    *same* frozen anchor; its key is shared, which is sound because
    hops only ``open`` with it and ``open`` is counter-free — seal
    under an anchor's key only through the owner's :class:`OwnedTha`.
    """
    return _decode_anchor(hop_id, bytes(blob))
