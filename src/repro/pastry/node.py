"""A Pastry overlay node: id, leaf set, routing table, liveness."""

from __future__ import annotations

from typing import Iterable

from repro.pastry.constants import DEFAULT_B_BITS, DEFAULT_LEAF_SET_SIZE
from repro.pastry.leafset import LeafSet
from repro.pastry.routing_table import RoutingTable
from repro.util.ids import ID_SPACE, id_to_hex, ring_distance, shared_prefix_digits

#: Cap on the per-node ``next_hop`` memo; cleared wholesale when
#: exceeded (keys routed between mutations are usually few and hot).
_HOP_MEMO_LIMIT = 4096


def ip_for_id(node_id: int) -> str:
    """Deterministic simulated IPv4 address for a node id.

    Used by the §5 IP-hint optimisation; collisions across the 2^128
    id space are irrelevant because hints are validated by liveness
    and closest-node checks, never trusted.
    """
    octets = [(node_id >> shift) & 0xFF for shift in (96, 64, 32, 0)]
    return ".".join(str(o % 254 + 1) for o in octets)


class PastryNode:
    """Routing state of one overlay node.

    Message handling lives at higher layers (:mod:`repro.past`,
    :mod:`repro.core.node`); this class owns the Pastry invariants.
    """

    def __init__(
        self,
        node_id: int,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ):
        self.node_id = node_id
        self.ip = ip_for_id(node_id)
        self.leaf_set = LeafSet(node_id, leaf_set_size)
        self.routing_table = RoutingTable(node_id, b_bits)
        self.alive = True
        #: ``key -> next_hop(key)``, valid for the ``(leaf-set version,
        #: routing-table version)`` pair in ``_hop_stamp``
        self._hop_memo: dict[int, int] = {}
        self._hop_stamp = None

    def __getstate__(self) -> dict:
        # a pickled or deep-copied node starts with an empty memo
        return {**self.__dict__, "_hop_memo": {}, "_hop_stamp": None}

    # -- state maintenance ----------------------------------------------
    def learn(self, node_ids: Iterable[int]) -> None:
        """Incorporate discovered nodes into leaf set and routing table."""
        for nid in node_ids:
            if nid == self.node_id:
                continue
            self.leaf_set.add(nid)
            self.routing_table.add(nid)

    def forget(self, node_id: int) -> tuple[int, int] | None:
        """Drop a node believed failed from all local state; returns the
        routing-table cell it vacated, if it held one."""
        self.leaf_set.remove(node_id)
        return self.routing_table.remove(node_id)

    def known_nodes(self) -> set[int]:
        return self.leaf_set.members | self.routing_table.entries

    # -- the Pastry routing decision --------------------------------------
    def next_hop(self, key: int) -> int:
        """Pastry's per-hop forwarding rule (Rowstron–Druschel §2.3).

        1. If the key is covered by the leaf set, deliver to the
           numerically closest leaf (possibly self → terminal).
        2. Otherwise use the routing-table cell for the key's first
           divergent digit.
        3. Otherwise (rare) forward to any known node that shares a
           prefix at least as long and is numerically closer to the
           key — guarantees progress, hence termination.

        Returning ``self.node_id`` means this node is responsible for
        the key.

        The rule reads nothing but the leaf-set ids and the table cells,
        so the answer is memoised until either structure's version moves
        (the stamps the route memo trusts).
        """
        stamp = (self.leaf_set.version, self.routing_table._version)
        memo = self._hop_memo
        if self._hop_stamp != stamp:
            memo.clear()
            self._hop_stamp = stamp
        nxt = memo.get(key)
        if nxt is None:
            if len(memo) >= _HOP_MEMO_LIMIT:
                memo.clear()
            nxt = memo[key] = self._decide(key)
        return nxt

    def _decide(self, key: int) -> int:
        """The rule itself, uncached."""
        if self.leaf_set.covers(key):
            return self.leaf_set.closest(key)

        entry = self.routing_table.entry_for_key(key)
        if entry is not None:
            return entry

        # Rare case: scan everything we know for guaranteed progress.
        own_prefix = shared_prefix_digits(self.node_id, key, self.routing_table.b_bits)
        own_dist = ring_distance(self.node_id, key)
        best = None
        best_key = None
        for nid in self.known_nodes():
            if shared_prefix_digits(nid, key, self.routing_table.b_bits) < own_prefix:
                continue
            dist = min(abs(nid - key), ID_SPACE - abs(nid - key))
            if dist >= own_dist:
                continue
            cand = (dist, nid)
            if best_key is None or cand < best_key:
                best_key = cand
                best = nid
        if best is not None:
            return best
        # No strictly better node known: we are (or believe we are)
        # numerically closest — deliver locally.
        return self.node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"PastryNode({id_to_hex(self.node_id)[:8]}…, {state})"
