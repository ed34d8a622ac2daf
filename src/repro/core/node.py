"""Per-node TAP state layered on a Pastry node.

A :class:`TapNode` owns the secrets and caches a participant needs:

* ``hkey`` — the secret bit-string entering hopid derivation (§3.2);
* a lazily generated RSA key pair (bootstrap PKI, §3.3, and the
  temporary ``K_I`` role of §4);
* the THAs it has generated (with their passwords);
* pending-reply contexts keyed by ``bid`` (§4);
* the IP-hint cache for the §5 optimisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.tha import OwnedTha, generate_tha
from repro.crypto.asymmetric import RsaKeyPair
from repro.pastry.node import ip_for_id
from repro.util.ids import ID_SPACE


@dataclass
class PendingReply:
    """What the initiator remembers while a reply is outstanding."""

    bid: int
    callback: Callable[[Any], None] | None = None
    completed: bool = False


class TapNode:
    """TAP participant state.  One per overlay node that uses TAP."""

    def __init__(self, node_id: int, rng: random.Random):
        self.node_id = node_id
        #: the node's simulated IP (:func:`~repro.pastry.node.ip_for_id`)
        self.ip = ip_for_id(node_id)
        self._rng = rng
        self.hkey: bytes = rng.getrandbits(128).to_bytes(16, "big")
        self._tha_counter = 0
        self._keypair: RsaKeyPair | None = None
        #: anchors this node generated, deployed or not
        self.owned_thas: list[OwnedTha] = []
        #: bid -> reply bookkeeping
        self.pending_replies: dict[int, PendingReply] = {}
        #: hopid -> (ip, node_id) believed current tunnel hop node (§5)
        self.hint_cache: dict[int, tuple[str, int]] = {}

    @property
    def keypair(self) -> RsaKeyPair:
        """Node key pair, generated on first use (keygen is costly)."""
        if self._keypair is None:
            self._keypair = RsaKeyPair.generate(self._rng, bits=512)
        return self._keypair

    # -- THA generation -------------------------------------------------
    def new_tha(self, timestamp: int | None = None) -> OwnedTha:
        """Generate (not yet deploy) a fresh node-specific anchor."""
        self._tha_counter += 1
        ts = timestamp if timestamp is not None else self._tha_counter
        tha = generate_tha(
            node_identifier=self.ip.encode(),
            hkey=self.hkey,
            timestamp=ts,
            rng=self._rng,
        )
        self.owned_thas.append(tha)
        return tha

    def deployed_thas(self) -> list[OwnedTha]:
        return [t for t in self.owned_thas if t.deployed]

    def discard_tha(self, tha: OwnedTha) -> None:
        """Forget a local anchor record (after deleting it from the DHT)."""
        try:
            self.owned_thas.remove(tha)
        except ValueError:
            pass

    # -- reply bookkeeping (§4) -----------------------------------------
    def make_bid(self, sorted_alive_ids: list[int]) -> int:
        """Pick an identifier whose numerically closest node is *this* node.

        The initiator must be the replica root of ``bid`` so the reply's
        final leg lands on it.  We draw ids uniformly from the arc
        between this node and its ring neighbours' midpoints — every
        point of that arc is provably closest to this node.
        """
        from bisect import bisect_left

        ids = sorted_alive_ids
        n = len(ids)
        if n == 0:
            raise ValueError("no alive nodes")
        if n == 1:
            return self._rng.getrandbits(128) % ID_SPACE
        pos = bisect_left(ids, self.node_id)
        if pos >= n or ids[pos] != self.node_id:
            raise ValueError("node is not in the alive id list")
        pred = ids[(pos - 1) % n]
        succ = ids[(pos + 1) % n]
        ccw_gap = (self.node_id - pred) % ID_SPACE
        cw_gap = (succ - self.node_id) % ID_SPACE
        # Stay strictly inside the half-gaps (quarter-gap margin) so
        # ties cannot hand the bid to a neighbour.
        lo = (self.node_id - max(1, ccw_gap // 4)) % ID_SPACE
        span = max(1, ccw_gap // 4) + max(1, cw_gap // 4)
        return (lo + self._rng.randrange(span + 1)) % ID_SPACE

    def register_pending(self, pending: PendingReply) -> None:
        """Await a reply at ``pending.bid``.  One owner per ``bid``: a
        second registration is refused (``ValueError``), not allowed to
        replace the callback the first owner is still waiting on."""
        if pending.bid in self.pending_replies:
            raise ValueError(f"bid {pending.bid:#x} is already awaited")
        self.pending_replies[pending.bid] = pending

    def release_pending(self, bid: int) -> None:
        """Stop awaiting ``bid``: a later reply walk to it fails closed."""
        self.pending_replies.pop(bid, None)
