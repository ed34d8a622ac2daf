"""k-of-n erasure-coded object storage with leases.

The second storage backend on :class:`repro.past.placement
.PlacementCore`: instead of ``k`` full copies, an object is split into
``n`` coded shares (:mod:`repro.past.coding`), any ``k`` of which
reconstruct it, placed on the ``n`` alive nodes closest to the key.
Each stored share carries

* a **hash-tree digest** (:mod:`repro.past.hashtree`): the Merkle root
  over all ``n`` share payloads plus this share's authentication path,
  so at-rest bit-rot is detected without touching sibling shares;
* a **lease** with an expiry epoch: holders garbage-collect shares
  whose lease lapsed on *their* clock (epoch plus any injected skew),
  and the repair crawler renews leases before they lapse;
* the object's ``H(PW)`` delete guard, so the §3.4 delete protocol
  works per holder exactly as it does under replication.

Reads are **degraded by construction**: ``fetch`` gathers shares from
the closest live holders, verifies each against the hash tree, and
decodes from the first ``k`` healthy ones — so any ``n - k`` crashed,
partitioned or bit-rotten shares still yield a byte-identical object.
Per-share-holder resilience policy (circuit breakers ordering the
probe sequence, hedged extra probes) plugs in via
:class:`repro.core.resilience.ShareHolderHealth`.

Repair is either **eager** (``eager_repair=True``: membership hooks
re-code lost shares immediately, mirroring ``ReplicatedStore`` — with
``data_shares=1`` the backend is then byte-equivalent to plain n-copy
replication, the "coding disabled" contract pinned in
``tests/past/test_erasure.py``) or **lazy** (the deployed-world mode:
hooks only account the damage and the background
:class:`repro.past.crawler.RepairCrawler` re-codes under a bounded
per-epoch bandwidth budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.past.coding import decode, encode
from repro.past.hashtree import HashTree, PathElement, verify_share
from repro.past.placement import PlacementCore, ReplicationError
from repro.past.storage import StorageError, StoredObject
from repro.pastry.network import PastryNetwork

#: extra holders verified beyond the first k when a health tracker
#: orders the probes (hedged probes)
HEDGE = 1


@dataclass(frozen=True)
class CodedShare:
    """One immutable coded share of one object."""

    key: int
    index: int
    k: int
    n: int
    data: bytes
    #: original object length (strips the coding pad on decode)
    length: int
    #: Merkle root over all n share payloads of this object
    root: bytes
    #: this share's authentication path up to ``root``
    path: tuple[PathElement, ...]
    #: epoch after which holders may garbage-collect the share
    lease_expiry: int
    delete_proof_hash: bytes | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def verify(self) -> bool:
        """Byte-exact integrity check against the object's hash tree."""
        return verify_share(self.data, self.path, self.root)

    def nbytes(self) -> int:
        return len(self.data)


class ErasureStore(PlacementCore):
    """k-of-n coded storage over a :class:`PastryNetwork`.

    The same placement core and public surface as
    :class:`repro.past.replication.ReplicatedStore`, holding shares
    instead of copies.  Shares live
    in real per-node :class:`Storage` instances, so a malicious holder
    sees exactly one share — strictly *less* plaintext than a
    replication holder sees, a free anonymity bonus the durability
    experiment does not even claim credit for.
    """

    def __init__(
        self,
        network: PastryNetwork,
        data_shares: int = 2,
        total_shares: int = 4,
        *,
        lease_term: int = 8,
        eager_repair: bool = True,
        metrics=None,
        tracer=None,
    ):
        if data_shares < 1:
            raise ValueError("data_shares must be >= 1")
        if total_shares < data_shares:
            raise ValueError("total_shares must be >= data_shares")
        if lease_term < 1:
            raise ValueError("lease_term must be >= 1")
        super().__init__(network, total_shares, "erasure", "share",
                         metrics, tracer, backend="erasure")
        self.k = data_shares
        self.n = total_shares
        self.lease_term = lease_term
        self.eager_repair = eager_repair
        #: the store's logical lease clock (advanced by the epoch loop)
        self.epoch = 0
        #: per-node lease-clock skew in epochs (fault-injected)
        self._clock_skew: dict[int, int] = {}

    def node_epoch(self, node_id: int) -> int:
        """The lease clock as ``node_id`` sees it (epoch + skew)."""
        return self.epoch + self._clock_skew.get(node_id, 0)

    def set_clock_skew(self, node_id: int, epochs: int) -> None:
        """Skew one holder's lease clock (the lease-skew fault)."""
        if epochs:
            self._clock_skew[node_id] = epochs
        else:
            self._clock_skew.pop(node_id, None)

    # ------------------------------------------------------------------
    # placement plumbing
    # ------------------------------------------------------------------
    def _place_share(self, node_id: int, share: CodedShare) -> None:
        self._place(
            node_id,
            StoredObject(share.key, share, share.delete_proof_hash,
                         share.meta),
            share.index,
        )

    def stored_share(self, node_id: int, key: int) -> CodedShare | None:
        """The share ``node_id`` holds locally under ``key`` (None if
        none), read without creating a storage for the node."""
        storage = self.storages.get(node_id)
        if storage is None or not storage.contains(key):
            return None
        value = storage.lookup(key).value
        return value if isinstance(value, CodedShare) else None

    def _live_shares(self, key: int, verified: bool = True) -> dict[int, CodedShare]:
        """index -> share, one per live holder (optionally verified).

        Preference between two live holders of the same index goes to
        the one closer to the key (:meth:`_live_holders` order).
        """
        out: dict[int, CodedShare] = {}
        for holder in self._live_holders(key):
            share = self.stored_share(holder, key)
            if share is None or share.index in out:
                continue
            if verified and not share.verify():
                self._count("share.corrupt_skipped")
                continue
            out[share.index] = share
        return out

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def _encode_all(
        self,
        key: int,
        value: bytes,
        delete_proof_hash: bytes | None,
        meta: dict,
        lease_expiry: int,
    ) -> list[CodedShare]:
        payloads = encode(value, self.k, self.n)
        tree = HashTree.from_shares(payloads)
        return [
            CodedShare(
                key=key, index=i, k=self.k, n=self.n, data=payloads[i],
                length=len(value), root=tree.root, path=tree.path(i),
                lease_expiry=lease_expiry,
                delete_proof_hash=delete_proof_hash, meta=meta,
            )
            for i in range(self.n)
        ]

    def insert(
        self,
        key: int,
        value: bytes,
        delete_proof_hash: bytes | None = None,
        meta: dict | None = None,
    ) -> StoredObject:
        """Code ``value`` into n shares on the n closest alive nodes."""
        if key in self._index:
            raise ReplicationError(f"key {key:#x} already inserted")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("erasure coding stores byte strings")
        shares = self._encode_all(
            key, bytes(value), delete_proof_hash, meta or {},
            self.epoch + self.lease_term,
        )
        targets = self.replica_set(key)
        for share, node_id in zip(shares, targets):
            self._place_share(node_id, share)
        self._count("objects.inserted")
        return StoredObject(key, bytes(value), delete_proof_hash, meta or {})

    def fetch(
        self,
        key: int,
        requester_id: int | None = None,
        health=None,
    ) -> StoredObject:
        """Degraded read: decode from any k healthy shares.

        ``health`` is an optional
        :class:`repro.core.resilience.ShareHolderHealth`: holders with
        open breakers are probed last, probe outcomes feed back into
        the breakers, and :data:`HEDGE` extra holders are verified
        beyond the first k so one slow/corrupt share does not force a
        second round trip.
        """
        placements = self._index.get(key)
        if not placements:
            raise StorageError(f"key {key:#x} not stored anywhere")
        if requester_id is not None and requester_id not in self.replica_membership(key):
            raise ReplicationError(
                f"node {requester_id:#x} is outside the replica set of {key:#x}"
            )
        live = self._live_holders(key)
        if not live:
            raise StorageError(f"all shares of {key:#x} are dead")
        hedge = 0
        if health is not None:
            live = health.order(live)
            hedge = HEDGE

        gathered: dict[int, CodedShare] = {}
        probed = 0
        exemplar: CodedShare | None = None
        for holder in live:
            if len(gathered) >= self.k and probed >= self.k + hedge:
                break
            probed += 1
            share = self.stored_share(holder, key)
            ok = share is not None and share.verify()
            if health is not None:
                health.record(holder, ok)
            if not ok:
                self._count("share.corrupt_skipped",
                            0 if share is None else 1)
                continue
            exemplar = exemplar or share
            gathered.setdefault(share.index, share)
        if len(gathered) < self.k or exemplar is None:
            raise StorageError(
                f"only {len(gathered)} healthy shares of {key:#x}, "
                f"need {self.k}"
            )
        if probed > len(gathered) or len(live) < len(placements):
            self._count("fetch.degraded")
        self._count("fetch.ok")
        value = decode(
            {i: s.data for i, s in gathered.items()},
            self.k, self.n, exemplar.length,
        )
        return StoredObject(
            key, value, exemplar.delete_proof_hash, dict(exemplar.meta)
        )

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def corrupt_replica(self, node_id: int, key: int) -> bool:
        """Flip one bit of the share held by ``node_id`` (bit-rot)."""
        share = self.stored_share(node_id, key)
        if share is None or not share.data:
            return False
        rotten = replace(
            share, data=bytes([share.data[0] ^ 0x01]) + share.data[1:]
        )
        self.storage_of(node_id).insert(
            StoredObject(key, rotten, rotten.delete_proof_hash, rotten.meta),
            overwrite=True,
        )
        self._count("faults.bitrot")
        return True

    # ------------------------------------------------------------------
    # lease machinery
    # ------------------------------------------------------------------
    def advance_epoch(self) -> int:
        """Tick the lease clock and let holders GC lapsed shares."""
        self.epoch += 1
        expired = 0
        for key in list(self._sorted_keys):
            for node_id in list(self._index.get(key, ())):
                if not self.network.is_alive(node_id):
                    continue
                share = self.stored_share(node_id, key)
                if share is None:
                    continue
                if self.node_epoch(node_id) > share.lease_expiry:
                    self._unplace(node_id, key)
                    expired += 1
        self._count("lease.expired_drops", expired)
        return self.epoch

    def renew_lease(self, node_id: int, key: int) -> bool:
        """Extend the lease of one held share to ``epoch + lease_term``."""
        share = self.stored_share(node_id, key)
        if share is None:
            return False
        renewed = replace(share, lease_expiry=self.epoch + self.lease_term)
        self.storage_of(node_id).insert(
            StoredObject(key, renewed, renewed.delete_proof_hash,
                         renewed.meta),
            overwrite=True,
        )
        return True

    # ------------------------------------------------------------------
    # repair core (shared by membership hooks and the crawler)
    # ------------------------------------------------------------------
    def repair_key(self, key: int) -> tuple[int, int]:
        """Restore ``key`` to one verified share per intended holder.

        Returns ``(shares_moved, bytes_moved)``; bytes charge both the
        k shares read to decode and every share written.  Objects with
        fewer than k healthy shares are lost (dropped from the index).
        """
        placements = self._index.get(key)
        if placements is None:
            return (0, 0)
        healthy = self._live_shares(key, verified=True)
        if len(healthy) < self.k:
            self._drop_object(key)
            return (0, 0)
        exemplar = next(iter(healthy.values()))
        intended = self.replica_set(key)
        intended_set = frozenset(intended)

        # trim live holders that fell out of the intended set, and live
        # holders whose share is missing/corrupt (their storage slot is
        # re-filled below if they are intended)
        for node_id in list(placements):
            if not self.network.is_alive(node_id):
                placements.pop(node_id, None)
                continue
            share = self.stored_share(node_id, key)
            if node_id not in intended_set:
                self._unplace(node_id, key)
            elif share is None or not share.verify():
                self._unplace(node_id, key)

        placements = self._index.get(key, {})
        held_indices = set(placements.values())
        missing_indices = [i for i in range(self.n) if i not in held_indices]
        vacant = [nid for nid in intended if nid not in placements]
        if not missing_indices or not vacant:
            return (0, 0)

        # decode once, re-encode deterministically, hand the missing
        # indices to the vacant intended holders (closest first)
        value = decode(
            {i: s.data for i, s in healthy.items()},
            self.k, self.n, exemplar.length,
        )
        shares = self._encode_all(
            key, value, exemplar.delete_proof_hash, dict(exemplar.meta),
            self.epoch + self.lease_term,
        )
        moved = 0
        nbytes = sum(s.nbytes() for s in list(healthy.values())[: self.k])
        for node_id, index in zip(vacant, missing_indices):
            self._place_share(node_id, shares[index])
            moved += 1
            nbytes += shares[index].nbytes()
        return (moved, nbytes)

    def _drop_object(self, key: int) -> None:
        for node_id in list(self._index.get(key, ())):
            self._unplace(node_id, key)
        self._forget_key(key)
        self._count("objects.lost")

    # ------------------------------------------------------------------
    # membership hooks
    # ------------------------------------------------------------------
    def on_fail(self, node_id: int) -> None:
        """React to a holder crash (call after ``network.fail``).

        Eager mode re-codes immediately; lazy mode only detaches the
        dead holder's attribution and leaves the re-coding to the
        crawler's budgeted pass.
        """
        storage = self.storages.get(node_id)
        if storage is None:
            return
        with self._repair_span("fail", node_id):
            for key in storage.keys():
                placements = self._index.get(key)
                if placements is None:
                    continue
                placements.pop(node_id, None)
                live = [h for h in placements if self.network.is_alive(h)]
                if not live:
                    self._forget_key(key)
                    self._count("objects.lost")
                    continue
                if self.eager_repair:
                    moved, nbytes = self.repair_key(key)
                    self._charge_repair(moved, nbytes)
        # the dead node keeps its unreachable local shares; revive
        # reconciliation purges whatever the index no longer attributes

    def _adopt(self, node_id: int) -> None:
        """Pull every nearby key back to its intended holder set (eager
        mode; a lazy store leaves it to the crawler)."""
        if not self.eager_repair:
            return
        for key in self._keys_near(node_id):
            if node_id not in self.replica_membership(key):
                continue
            moved, nbytes = self.repair_key(key)
            self._charge_repair(moved, nbytes)
