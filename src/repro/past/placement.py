"""The placement core under both PAST backends: who holds what.

TAP's fault tolerance is one storage invariant — an object lives on
the ``width`` alive nodes numerically closest to its key, and when one
of them fails a replica-set candidate takes over (§3) — so everything
that maintains *where* things live is written here, once: the per-node
:class:`Storage` registry, the holder index, the epoch-scoped
intended-holder memo, the closest-live-holder preference, the §3.4
delete walk, stale-copy reconciliation, the arc bound on which keys a
(re)joining node can affect, and the repair accounting and span
prologue of the membership hooks.

What a stored thing *is* (a full copy or one coded share) and how a
lost one is rebuilt is the durability policy the two subclasses add:
:class:`~repro.past.replication.ReplicatedStore` and
:class:`~repro.past.erasure.ErasureStore`.  The core is parameterised
by data only — width, metric prefix, unit noun, span attributes — and
never asks which policy sits on top of it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import nullcontext
from typing import Callable

from repro.past.interface import repair_latency_s
from repro.past.storage import Storage, StoredObject
from repro.pastry.network import PastryNetwork
from repro.util.ids import ID_SPACE, ring_distance


class ReplicationError(RuntimeError):
    """Raised when an operation cannot satisfy replication invariants."""


class PlacementCore:
    """``width``-closest placement over a :class:`PastryNetwork`.

    A single store manages all objects in the overlay; per-node
    :class:`Storage` instances hold the actual copies or shares, so
    reads go through real node-local state.  Subclasses supply
    ``_adopt(node_id)`` — pull the keys near a (re)joined node back to
    their intended holders — and the client operations.
    """

    def __init__(
        self,
        network: PastryNetwork,
        width: int,
        prefix: str,
        unit: str,
        metrics=None,
        tracer=None,
        **span_attrs,
    ):
        self.network = network
        #: how many closest alive nodes are meant to hold each key
        self.width = width
        #: optional :class:`repro.obs.MetricsRegistry`; every counter
        #: is ``<prefix>.…``, the per-copy ones ``<prefix>.<unit>.…``
        self.metrics = metrics
        #: optional :class:`repro.obs.SpanTracer`; membership repairs
        #: become ``failover.repair`` spans carrying ``span_attrs``
        self.tracer = tracer
        self._prefix, self._unit, self._span_attrs = prefix, unit, span_attrs
        #: per-node storage, created lazily by :meth:`storage_of` — a
        #: store only ever pays for the nodes that actually hold objects
        self.storages: dict[int, Storage] = {}
        #: key -> holder node id -> slot attributed there (the share
        #: index; 0 for a full copy), plus the same keys in order
        self._index: dict[int, dict[int, int]] = {}
        self._sorted_keys: list[int] = []
        #: observers notified as (key, node_id) on every placement;
        #: the collusion adversary subscribes here.
        self.on_replica_placed: list[Callable[[int, int], None]] = []
        # intended-holder memo, valid for one membership epoch: the
        # repair loops recompute the same closest sets for the same
        # keys many times between membership changes.
        self._memo_epoch = -1
        self._memo: dict[int, tuple[list[int], frozenset[int]]] = {}

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(f"{self._prefix}.{name}").inc(amount)

    def _charge_repair(self, objects: int, nbytes: int) -> None:
        """Account one repair action: copies/shares moved, bytes
        shipped, and the virtual transfer latency at the nominal link
        bandwidth (:data:`repro.past.interface.REPAIR_BANDWIDTH_BPS`) —
        one indicator scheme under both prefixes, so the two
        repair-bandwidth profiles compare directly."""
        if self.metrics is None or not objects:
            return
        prefix = self._prefix
        self.metrics.counter(f"{prefix}.repair.objects_moved").inc(objects)
        self.metrics.counter(f"{prefix}.repair.bytes_moved").inc(nbytes)
        self.metrics.histogram(f"{prefix}.repair.latency_s").observe(
            repair_latency_s(nbytes)
        )

    def _repair_span(self, event: str, node_id: int):
        """Count one membership repair and open its span."""
        self._count(f"repair.on_{event}")
        tr = self.tracer
        if not tr:
            return nullcontext()
        return tr.span("failover.repair", observer="hop", event=event,
                       hop_node=node_id, **self._span_attrs)

    # ------------------------------------------------------------------
    # who should hold a key, and who does
    # ------------------------------------------------------------------
    def storage_of(self, node_id: int) -> Storage:
        store = self.storages.get(node_id)
        if store is None:
            store = self.storages[node_id] = Storage(node_id)
        return store

    def _intended(self, key: int) -> tuple[list[int], frozenset[int]]:
        epoch = self.network.membership_epoch
        if epoch != self._memo_epoch:
            self._memo.clear()
            self._memo_epoch = epoch
        entry = self._memo.get(key)
        if entry is None:
            members = self.network.replica_candidates(key, self.width)
            entry = self._memo[key] = (members, frozenset(members))
            self._count("replica_set.misses")
        else:
            self._count("replica_set.hits")
        return entry

    def replica_set(self, key: int) -> list[int]:
        """The *intended* holders right now (``width`` closest alive),
        closest first.

        Memoised per membership epoch — callers get a fresh copy, so
        mutating the return value never corrupts the cache.
        """
        return list(self._intended(key)[0])

    def replica_membership(self, key: int) -> frozenset[int]:
        """The intended holders as a frozenset, for membership tests
        (same epoch-scoped cache as :meth:`replica_set`)."""
        return self._intended(key)[1]

    def holders(self, key: int) -> set[int]:
        """Nodes currently attributed a copy or share of ``key`` (may
        lag the intended set)."""
        return set(self._index.get(key, ()))

    def _live_holders(self, key: int) -> list[int]:
        """Alive holders of ``key``, numerically closest to it first
        (ties by id): the one deterministic preference every read,
        copy and re-code makes, so repair traces are seed-stable
        whatever order the index was filled in."""
        is_alive = self.network.is_alive
        return sorted(
            (h for h in self._index.get(key, ()) if is_alive(h)),
            key=lambda h: (ring_distance(h, key), h),
        )

    def all_keys(self) -> list[int]:
        return list(self._sorted_keys)

    # ------------------------------------------------------------------
    # index plumbing
    # ------------------------------------------------------------------
    def _place(self, node_id: int, obj: StoredObject, slot: int = 0) -> None:
        self.storage_of(node_id).insert(obj, overwrite=True)
        slots = self._index.setdefault(obj.key, {})
        if not slots:
            insort(self._sorted_keys, obj.key)
        slots[node_id] = slot
        self._count(f"{self._unit}.placements")
        for callback in self.on_replica_placed:
            callback(obj.key, node_id)

    def _unplace(self, node_id: int, key: int) -> None:
        self.storage_of(node_id).drop(key)
        slots = self._index.get(key)
        if slots is not None:
            slots.pop(node_id, None)
            if not slots:
                self._forget_key(key)

    def _forget_key(self, key: int) -> None:
        self._index.pop(key, None)
        pos = bisect_left(self._sorted_keys, key)
        if pos < len(self._sorted_keys) and self._sorted_keys[pos] == key:
            del self._sorted_keys[pos]

    def delete(self, key: int, proof: bytes) -> bool:
        """Delete from every holder whose copy accepts the owner's PW
        (§3.4); the guard is checked per holder, by that holder."""
        deleted_any = False
        for node_id in list(self._index.get(key, ())):
            if self.storage_of(node_id).delete(key, proof):
                self._unplace(node_id, key)
                deleted_any = True
        return deleted_any

    # ------------------------------------------------------------------
    # membership events (call after the matching network event)
    # ------------------------------------------------------------------
    def on_join(self, node_id: int) -> None:
        """Hand the newcomer what it is now responsible for.

        Also trims holders that dropped out of the intended set, and
        purges any stale local copies left over if the id previously
        lived (and died) in the overlay.
        """
        self._rejoin("join", node_id)

    def on_revive(self, node_id: int) -> None:
        """Reconcile a node returning from the dead with stale storage.

        Two things happened while the node was away that its local
        storage cannot know:

        * objects were *deleted* (the owner presented PW to the live
          holders; §3.4) — keeping the local copy would resurrect a
          deleted object the moment the node is locally readable again;
        * copies were handed off to other nodes — the returning copy
          is no longer attributed to this node by the index, and a §5
          hint probe would wrongly treat the node as a current holder.

        Both cases are "objects the holder index does not attribute to
        this node": drop them, then adopt whatever the node is *now*
        responsible for (same logic as a fresh join).
        """
        self._rejoin("revive", node_id)

    def _rejoin(self, event: str, node_id: int) -> None:
        with self._repair_span(event, node_id) as span:
            purged = self._reconcile_storage(node_id)
            self._adopt(node_id)
            if span is not None:
                span.set(stale_purged=purged)

    def _reconcile_storage(self, node_id: int) -> int:
        """Drop local objects the holder index does not attribute to
        ``node_id``; returns how many were purged."""
        storage = self.storages.get(node_id)
        if storage is None:
            return 0
        purged = 0
        for key in storage.keys():
            if node_id not in self._index.get(key, ()):
                storage.drop(key)
                purged += 1
        self._count(f"{self._unit}.stale_purged", purged)
        return purged

    def _keys_near(self, node_id: int) -> list[int]:
        """Keys whose intended holders could include ``node_id``.

        If both the clockwise and counterclockwise arcs from the key to
        ``node_id`` contain at least ``width`` other alive nodes, then
        ``width`` nodes are strictly closer to the key than ``node_id``
        is, so the key cannot adopt it.  Candidates therefore lie in
        the arc between the ``width``-th alive predecessor and the
        ``width``-th alive successor.
        """
        if not self._sorted_keys:
            return []
        ids = self.network.alive_ids
        n = len(ids)
        if n <= self.width + 1:
            return list(self._sorted_keys)
        pos = bisect_left(ids, node_id)
        if pos >= n or ids[pos] != node_id:
            raise ReplicationError(f"node {node_id:#x} is not alive")
        cw_limit = (ids[(pos + self.width) % n] - node_id) % ID_SPACE
        ccw_limit = (node_id - ids[(pos - self.width) % n]) % ID_SPACE
        return [
            key
            for key in self._sorted_keys
            if (key - node_id) % ID_SPACE <= cw_limit
            or (node_id - key) % ID_SPACE <= ccw_limit
        ]
