"""A Pastry overlay node: its forwarding rule and what it memoised.

A node stores no other id.  Its leaf set is its window of the
network's sorted alive ids (:meth:`PastryNetwork.leaves`) and its
routing-table cells the smallest alive ids of their prefix classes, or
on a PNS network the nearest of the first few
(:meth:`PastryNetwork.cell`): the state a bulk build would install,
so it never names a dead node.  The same rule routes a
:class:`repro.perf.compact.CompactOverlay`, read over its id words
(``CompactOverlay.twin``).  A node object holds
only the window epoch its memoised decisions were taken under and the
memo itself; the network builds it on the node's first decision.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.pastry.bulk import leaf_reach, leaf_window
from repro.util.ids import (
    ID_BITS, ID_SPACE, closest_in_sorted, ring_distance, shared_prefix_digits,
)

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


def class_key(digits: int, prefix: int, whole: bool = False) -> int:
    """The ``_class_epochs`` key of the ids whose first ``digits``
    digits are ``prefix``: even for the class's smallest alive id, odd
    (``whole``) for the whole class.  One int, so a memoised decision
    holds no container for the garbage collector to track."""
    return (prefix << 8 | digits) << 1 | whole


class PastryNode:
    """Memoised forwarding decisions of one overlay node of ``network``.

    Message handling lives at higher layers (:mod:`repro.past`,
    :mod:`repro.core.node`); this class owns the Pastry invariants.
    """

    def __init__(self, node_id: int, network):
        self.node_id = node_id
        #: the :class:`~repro.pastry.network.PastryNetwork` whose alive
        #: ids the leaf set and routing cells are read from
        self.network = network
        #: the membership epoch of the last event that changed the
        #: node's leaf window (the network stamps it); memoised
        #: decisions hold while it stands
        self.window_epoch = network.membership_epoch
        #: ``key -> (next hop, class read, its stamp)`` (see
        #: :meth:`decision`), valid for the window epoch in
        #: ``_hop_epoch``
        self._hop_memo: dict[int, tuple] = {}
        self._hop_epoch = None

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
        """
        return self.decision(key)[0]

    def decision(self, key: int) -> tuple[int, int | None, int]:
        """``(next hop, class, stamp)``, memoised.

        A decision reads the leaf window and, past it, what ``class``
        names (a :func:`class_key`): ``None`` for rule 1; the class
        whose smallest alive id rule 2 took; the whole class a PNS
        choice was made in or rule 3 scanned.  ``stamp`` is that key's
        entry in the network's ``_class_epochs`` when the decision was
        taken.  A memoised decision is served while the window epoch
        and the class stamp both still hold (the stamps the route memo
        trusts too).
        """
        memo = self._hop_memo
        if self._hop_epoch != self.window_epoch:
            memo.clear()
            self._hop_epoch = self.window_epoch
        hit = memo.get(key)
        if hit is not None and (
            hit[1] is None or self.network._class_epochs.get(hit[1], 0) == hit[2]
        ):
            return hit
        if len(memo) >= _HOP_MEMO_LIMIT:
            memo.clear()
        hit = memo[key] = self._decide(key)
        return hit

    def served_memo(self):
        """The ``(key, decision)`` memo entries :meth:`decision` would
        serve now (what the invariant auditor re-decides)."""
        if self._hop_epoch != self.window_epoch:
            return
        epochs = self.network._class_epochs
        for key, hit in self._hop_memo.items():
            if hit[1] is None or epochs.get(hit[1], 0) == hit[2]:
                yield key, hit

    def _decide(self, key: int) -> tuple[int, int | None, int]:
        """The rule itself, uncached, with what it read.  A node that
        is not alive delivers locally."""
        net = self.network
        ids = net.alive_ids
        n = len(ids)
        pos = bisect_left(ids, self.node_id)
        if pos == n or ids[pos] != self.node_id:
            return self.node_id, None, 0
        # Rule 1: a ring of at most |L| ids is one leaf window; past
        # that, the window's far ends bound the arc the node covers,
        # and the key's two ring neighbours (hence its closest id) lie
        # on it.
        if n > net.leaf_set_size:
            half = net.leaf_set_size // 2
            ccw_far = ids[pos - half]
            covered = (key - ccw_far) % ID_SPACE <= (ids[(pos + half) % n] - ccw_far) % ID_SPACE
        else:
            covered = True
        if covered:
            return closest_in_sorted(ids, key, 1)[0], None, 0

        b = net.b_bits
        row = shared_prefix_digits(self.node_id, key, b)
        shift = ID_BITS - b * (row + 1)
        prefix = key >> shift
        cls = class_key(row + 1, prefix)
        if net.proximity is not None:
            cls = class_key(row + 1, prefix, whole=True)
            entry = net.cell(self.node_id, row, prefix & ((1 << b) - 1))
        else:  # the cell's class is the key's (row + 1)-digit prefix
            entry = net.first_alive_in(prefix << shift, (prefix + 1) << shift)
        if entry is not None:
            return entry, cls, net._class_epochs.get(cls, 0)

        # Rare case: scan everything we know for guaranteed progress.
        # Leaves sharing fewer than ``row`` digits with the key do not
        # qualify, and every cell of rows ``row`` and deeper does: all
        # of them lie in the node's ``row``-digit prefix class.
        cls = class_key(row, prefix >> b, whole=True)
        leaves = leaf_window(ids, pos, leaf_reach(n, net.leaf_set_size))
        candidates = [nid for nid in leaves if shared_prefix_digits(nid, key, b) >= row]
        candidates.extend(net.cells(self.node_id, row).values())
        own_dist = ring_distance(self.node_id, key)
        better = [
            (dist, nid) for nid in candidates if (dist := ring_distance(nid, key)) < own_dist
        ]
        # No strictly better node known: we are numerically closest —
        # deliver locally.
        nxt = min(better)[1] if better else self.node_id
        return nxt, cls, net._class_epochs.get(cls, 0)
