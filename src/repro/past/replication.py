"""Replication manager: keep every key on its k closest alive nodes.

This is the aggregate behaviour of FreePastry's per-node replication
manager.  The store subscribes to membership changes
(:meth:`on_fail`, :meth:`on_join`) and migrates replicas so the
invariant

    ``holders(key) == the k alive nodes numerically closest to key``

is restored after each event — provided at least one holder survived
to copy from.  If all ``k`` holders die before repair, the object is
lost: exactly the failure mode TAP's Figure 2 quantifies.
"""

from __future__ import annotations

from typing import Any

from repro.past.interface import value_nbytes
from repro.past.placement import PlacementCore, ReplicationError
from repro.past.storage import StorageError, StoredObject
from repro.pastry.network import PastryNetwork


class ReplicatedStore(PlacementCore):
    """k-closest replicated storage over a :class:`PastryNetwork`.

    The durability policy is the plain one: every holder keeps a full
    copy, so a malicious holder *does* see the plaintext object — the
    property TAP's collusion analysis needs — and a lost copy is
    restored by copying from the closest surviving holder.
    """

    def __init__(
        self,
        network: PastryNetwork,
        replication_factor: int = 3,
        metrics=None,
        tracer=None,
    ):
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        super().__init__(network, replication_factor, "past", "replica",
                         metrics, tracer)
        self.k = replication_factor

    # perfbench/tracer.py patches its targets through vars(owner), so
    # these two must be bound in this class body, not merely inherited.
    storage_of = PlacementCore.storage_of
    on_revive = PlacementCore.on_revive

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def insert(
        self,
        key: int,
        value: Any,
        delete_proof_hash: bytes | None = None,
        meta: dict | None = None,
    ) -> StoredObject:
        """Insert an object onto the k closest alive nodes."""
        if key in self._index:
            raise ReplicationError(f"key {key:#x} already inserted")
        obj = StoredObject(key, value, delete_proof_hash, meta or {})
        for node_id in self.replica_set(key):
            self._place(node_id, obj)
        return obj

    def fetch(self, key: int, requester_id: int | None = None) -> StoredObject:
        """Fetch from the replica root (fail-over to any live holder).

        If ``requester_id`` is given, enforce TAP's THA access rule
        (§3.1): only nodes in the replica set may read the object
        through the overlay.  (Owners read nothing — they already know
        their THAs; they only ever *delete*, presenting PW.)
        """
        if key not in self._index:
            raise StorageError(f"key {key:#x} not stored anywhere")
        live = self._live_holders(key)
        if not live:
            raise StorageError(f"all replicas of {key:#x} are dead")
        if requester_id is not None and requester_id not in self.replica_membership(key):
            raise ReplicationError(
                f"node {requester_id:#x} is outside the replica set of {key:#x}"
            )
        return self.storage_of(live[0]).lookup(key)

    def exists(self, key: int) -> bool:
        """Reachable: at least one *live* holder has the object."""
        return any(
            self.network.is_alive(h) for h in self._index.get(key, ())
        )

    # ------------------------------------------------------------------
    # membership events
    # ------------------------------------------------------------------
    def on_fail(self, node_id: int) -> None:
        """Re-replicate every object the failed node held.

        Call *after* ``network.fail(node_id)``.  Objects whose live
        holders all vanished are lost (and dropped from the index).
        """
        storage = self.storages.get(node_id)
        if storage is None:
            return
        with self._repair_span("fail", node_id) as span:
            copied = lost = 0
            for key in storage.keys():
                holders = self._index.get(key, {})
                holders.pop(node_id, None)
                live = self._live_holders(key)
                if not live:
                    self._forget_key(key)
                    lost += 1
                    self._count("objects.lost")
                    continue
                source = self.storage_of(live[0]).lookup(key)
                moved = 0
                for target in self.replica_set(key):
                    if target not in holders:
                        self._place(target, source)
                        moved += 1
                copied += moved
                self._charge_repair(moved, moved * value_nbytes(source.value))
            if span is not None:
                span.set(replicas_copied=copied, objects_lost=lost)
        # The dead node keeps its (now unreachable) local copies; if it
        # ever rejoins, on_join/on_revive will reconcile.

    def _adopt(self, node_id: int) -> None:
        """Hand ``node_id`` the replicas it is now responsible for and
        trim holders that dropped out of the intended k-closest set."""
        for key in self._keys_near(node_id):
            if not self.exists(key):
                continue
            intended = self.replica_membership(key)
            if node_id not in intended:
                continue
            live = self._live_holders(key)
            source = self.storage_of(live[0]).lookup(key)
            self._place(node_id, source)
            self._charge_repair(1, value_nbytes(source.value))
            for stale in live:
                if stale not in intended:
                    self._unplace(stale, key)

    # ------------------------------------------------------------------
    # fault hooks / diagnostics
    # ------------------------------------------------------------------
    def corrupt_replica(self, node_id: int, key: int) -> bool:
        """Flip one bit of ``node_id``'s replica (the bit-rot fault).

        Replication has no at-rest integrity check, so a corrupted
        replica is *served as-is* by :meth:`fetch` — the silent-rot
        failure mode the durability experiment contrasts with the
        erasure backend's hash-tree rejection.
        """
        storage = self.storages.get(node_id)
        if storage is None or not storage.contains(key):
            return False
        obj = storage.lookup(key)
        if not isinstance(obj.value, (bytes, bytearray)) or not obj.value:
            return False
        value = bytes(obj.value)
        rotten = bytes([value[0] ^ 0x01]) + value[1:]
        storage.insert(
            StoredObject(key, rotten, obj.delete_proof_hash, obj.meta),
            overwrite=True,
        )
        self._count("faults.bitrot")
        return True

    def verify_invariants(self) -> list[str]:
        """Return human-readable invariant violations (empty == healthy)."""
        problems: list[str] = []
        for key, holders in self._index.items():
            live = {h for h in holders if self.network.is_alive(h)}
            intended = self.replica_membership(key)
            if live != intended:
                problems.append(
                    f"key {key:#x}: holders {sorted(live)} != intended {sorted(intended)}"
                )
        return problems
