"""Pastry leaf set: the |L| nodes numerically closest to the owner.

Half of the entries are the closest ids clockwise (numerically larger,
wrapping) and half counterclockwise.  The leaf set determines the last
routing step and — shared with PAST — the replica-set neighbourhood.

Members are one ascending id list: ring order, clockwise from the owner
when read from the owner's position (one bisect).  Counterclockwise
distance is ``2**128 -`` clockwise distance, so the halves are the two
ends of that one order and every query is an index or a bisect of it.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.pastry.constants import DEFAULT_LEAF_SET_SIZE
from repro.util.ids import ID_SPACE


class LeafSet:
    """Bounded set of ring neighbours, split into CW/CCW halves."""

    def __init__(self, owner_id: int, capacity: int = DEFAULT_LEAF_SET_SIZE):
        if capacity < 2 or capacity % 2 != 0:
            raise ValueError("leaf-set capacity must be an even number >= 2")
        self.owner_id = owner_id
        self.capacity = capacity
        self.half = capacity // 2
        #: member ids, ascending
        self._ids: list[int] = []
        #: moves exactly when ``_ids`` changes (a candidate trimmed
        #: straight back out, or a repeated ``add``, leaves it alone);
        #: the owner's ``next_hop`` memo and the network's memoised
        #: routes are stamped with it
        self.version = 0

    # -- membership ----------------------------------------------------
    @property
    def members(self) -> set[int]:
        """All current leaf ids (excluding the owner)."""
        return set(self._ids)

    def _clockwise(self) -> list[int]:
        """Members in clockwise order from the owner, nearest first."""
        start = bisect_left(self._ids, self.owner_id)
        return self._ids[start:] + self._ids[:start]

    def cw_members(self) -> list[int]:
        """Clockwise half, nearest first."""
        return self._clockwise()[: self.half]

    def ccw_members(self) -> list[int]:
        """Counterclockwise half, nearest first."""
        return self._clockwise()[: -self.half - 1 : -1]

    def add(self, node_id: int) -> bool:
        """Insert a candidate, evicting the furthest if a half overflows;
        True if the candidate is retained."""
        self.add_all((node_id,))
        return node_id in self

    def add_all(self, node_ids) -> None:
        ids = self._ids
        before = ids[:]
        for node_id in node_ids:
            if node_id == self.owner_id:
                continue
            pos = bisect_left(ids, node_id)
            if pos == len(ids) or ids[pos] != node_id:
                ids.insert(pos, node_id)
        self._trim()
        if ids != before:
            self.version += 1

    def reload(self, window: list[int]) -> None:
        """Become the owner's slice of the ring order as read by
        :func:`repro.pastry.bulk.leaf_window` (ascending, owner-free,
        adopted as is) — how the network sets every leaf set at build
        and at each membership event; ``version`` moves only if the
        ids did."""
        if window != self._ids:
            self._ids = window
            self.version += 1

    def remove(self, node_id: int) -> None:
        ids = self._ids
        pos = bisect_left(ids, node_id)
        if pos < len(ids) and ids[pos] == node_id:
            del ids[pos]
            self.version += 1

    def _trim(self) -> None:
        """Keep only ids that belong to either bounded half, i.e. drop
        the middle of the clockwise order.  (A half with a vacancy is
        thereby filled from the other side of the ring.  The network
        never leaves one — it re-reads whole windows, :meth:`reload` —
        but the incremental :meth:`add` / :meth:`remove` can.)"""
        ids = self._ids
        while len(ids) > self.capacity:
            del ids[(bisect_left(ids, self.owner_id) + self.half) % len(ids)]

    def __contains__(self, node_id: int) -> bool:
        pos = bisect_left(self._ids, node_id)
        return pos < len(self._ids) and self._ids[pos] == node_id

    def __len__(self) -> int:
        return len(self._ids)

    # -- routing queries -------------------------------------------------
    def is_full(self) -> bool:
        """Both halves at capacity *and* disjoint.  With fewer members
        the same node ranks in the top |L|/2 of both directions; such a
        "wrapped" leaf set spans the entire ring and bounds no arc."""
        return len(self._ids) >= self.capacity

    def covers(self, key: int) -> bool:
        """True if ``key`` falls within the leaf-set arc.

        Pastry routes directly to the numerically closest leaf when the
        key lies between the furthest CCW and furthest CW members.  A
        non-full or ring-wrapping leaf set covers everything.
        """
        ids = self._ids
        if len(ids) < self.capacity:
            return True
        start = bisect_left(ids, self.owner_id)
        ccw_far = ids[start - self.half]
        cw_far = ids[(start + self.half - 1) % len(ids)]
        return (key - ccw_far) % ID_SPACE <= (cw_far - ccw_far) % ID_SPACE

    def closest(self, key: int) -> int:
        """Numerically closest id to ``key`` among leaves and owner,
        ties toward the smaller id: the owner or one of the key's two
        ring neighbours in the list."""
        ids = self._ids
        pos = bisect_left(ids, key)
        pool = [ids[pos - 1], ids[pos % len(ids)], self.owner_id] if ids else [self.owner_id]
        return min(pool, key=lambda x: (min(abs(x - key), ID_SPACE - abs(x - key)), x))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeafSet(owner={self.owner_id:#034x}, "
            f"|cw|={len(self.cw_members())}, |ccw|={len(self.ccw_members())})"
        )
