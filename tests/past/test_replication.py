"""Tests for the k-closest replication manager."""

import random

import pytest

from repro.crypto.hashing import hash_password
from repro.past.replication import ReplicatedStore, ReplicationError
from repro.past.storage import Storage, StorageError
from repro.pastry.network import PastryNetwork
from repro.util.ids import random_id
from tests.conftest import build_network


@pytest.fixture()
def store():
    net = build_network(80, seed=13)
    return ReplicatedStore(net, replication_factor=3)


def _insert_many(store, count, seed=1):
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        key = random_id(rng)
        store.insert(key, f"v{key}".encode())
        keys.append(key)
    return keys


class TestInsertFetch:
    def test_insert_places_on_k_closest(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        assert store.holders(key) == set(store.replica_set(key))
        assert len(store.holders(key)) == 3

    def test_replicas_are_real_node_local_objects(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        for nid in store.holders(key):
            assert store.storage_of(nid).lookup(key).value == b"v"

    def test_fetch_returns_value(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        assert store.fetch(key).value == b"v"

    def test_duplicate_insert_rejected(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        with pytest.raises(ReplicationError):
            store.insert(key, b"w")

    def test_fetch_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.fetch(12345)

    def test_root_is_closest(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        root = store.network.closest_alive(key)
        assert store.replica_set(key)[0] == root and root in store.holders(key)

    def test_invalid_k_rejected(self):
        net = build_network(10, seed=1)
        with pytest.raises(ValueError):
            ReplicatedStore(net, replication_factor=0)

    def test_access_control_outside_replica_set(self, store):
        """§3.1: only replica-set nodes may read a THA via the overlay."""
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        outsider = next(
            nid for nid in store.network.alive_ids
            if nid not in store.replica_set(key)
        )
        with pytest.raises(ReplicationError):
            store.fetch(key, requester_id=outsider)

    def test_access_control_inside_replica_set(self, store):
        key = random_id(random.Random(2))
        store.insert(key, b"v")
        member = store.replica_set(key)[1]
        assert store.fetch(key, requester_id=member).value == b"v"


class TestDelete:
    def test_delete_with_pw(self, store):
        key = random_id(random.Random(3))
        store.insert(key, b"v", delete_proof_hash=hash_password(b"pw"))
        assert store.delete(key, b"pw")
        assert not store.exists(key)
        for nid in store.network.alive_ids:
            assert not store.storage_of(nid).contains(key)

    def test_delete_wrong_pw_fails_everywhere(self, store):
        key = random_id(random.Random(3))
        store.insert(key, b"v", delete_proof_hash=hash_password(b"pw"))
        assert not store.delete(key, b"bad")
        assert store.exists(key)

    def test_delete_missing_key(self, store):
        assert not store.delete(999, b"pw")


class TestFailureRepair:
    def test_root_failure_promotes_candidate(self, store):
        key = random_id(random.Random(4))
        store.insert(key, b"v")
        old_root = store.network.closest_alive(key)
        store.network.fail(old_root)
        store.on_fail(old_root)
        new_root = store.network.closest_alive(key)
        assert new_root != old_root
        assert store.storage_of(new_root).contains(key)
        assert store.fetch(key).value == b"v"

    def test_invariant_restored_after_each_failure(self, store):
        keys = _insert_many(store, 30)
        rng = random.Random(5)
        for _ in range(15):
            victim = rng.choice(store.network.alive_ids)
            store.network.fail(victim)
            store.on_fail(victim)
        assert store.verify_invariants() == []
        for key in keys:
            assert store.fetch(key).value == f"v{key}".encode()

    def test_simultaneous_failure_of_all_replicas_loses_object(self, store):
        key = random_id(random.Random(6))
        store.insert(key, b"v")
        holders = list(store.holders(key))
        for nid in holders:  # all fail before any repair
            store.network.fail(nid)
        for nid in holders:
            store.on_fail(nid)
        assert not store.exists(key)
        with pytest.raises(StorageError):
            store.fetch(key)

    def test_partial_replica_failure_keeps_object(self, store):
        key = random_id(random.Random(7))
        store.insert(key, b"v")
        holders = list(store.holders(key))
        for nid in holders[:-1]:  # leave one survivor
            store.network.fail(nid)
        for nid in holders[:-1]:
            store.on_fail(nid)
        assert store.exists(key)
        assert store.fetch(key).value == b"v"
        assert store.verify_invariants() == []


class TestJoinHandoff:
    def test_join_inside_replica_arc_receives_copy(self, store):
        key = random_id(random.Random(8))
        store.insert(key, b"v")
        # Craft a newcomer id right next to the key: it must become root.
        new_id = key + 2 if store.network.is_registered(key + 1) else key + 1
        store.network.join(new_id)
        store.on_join(new_id)
        assert store.network.closest_alive(key) == new_id
        assert store.storage_of(new_id).contains(key)
        assert store.verify_invariants() == []

    def test_join_far_away_changes_nothing(self, store):
        keys = _insert_many(store, 10, seed=9)
        before = {k: store.holders(k) for k in keys}
        # Pick an id maximally far from every key (just a random one
        # that lands in no replica set).
        rng = random.Random(10)
        while True:
            new_id = random_id(rng)
            if all(
                new_id not in store.replica_set(k) for k in keys
            ) and not store.network.is_registered(new_id):
                break
        store.network.join(new_id)
        store.on_join(new_id)
        after = {k: store.holders(k) for k in keys}
        assert before == after

    def test_displaced_holder_dropped(self, store):
        key = random_id(random.Random(11))
        store.insert(key, b"v")
        displaced = store.replica_set(key)[-1]
        new_id = key + 2 if store.network.is_registered(key + 1) else key + 1
        store.network.join(new_id)
        store.on_join(new_id)
        assert displaced not in store.holders(key)
        assert not store.storage_of(displaced).contains(key)

    def test_on_fail_copies_from_closest_live_holder(self, monkeypatch):
        """Regression: the repair source must be the live holder
        numerically closest to the key, not whichever node set
        iteration happens to yield first.

        The overlay is crafted so the two orders disagree: CPython
        iterates the small-int set ``{1, 8}`` as ``[8, 1]`` (hash(x)
        == x, table size 8), so an order-dependent choice copies from
        node 8 while the closest live holder of key 2 is node 1.
        """
        net = PastryNetwork.build({1, 3, 8, 1000})
        store = ReplicatedStore(net, replication_factor=3)
        key = 2
        store.insert(key, b"v")
        assert store.holders(key) == {1, 3, 8}

        lookups = []
        orig_lookup = Storage.lookup

        def spying_lookup(self, k):
            lookups.append((self.node_id, k))
            return orig_lookup(self, k)

        monkeypatch.setattr(Storage, "lookup", spying_lookup)
        net.fail(3)
        store.on_fail(3)
        sources = [nid for nid, k in lookups if k == key]
        assert sources == [1]
        assert store.holders(key) == {1, 8, 1000}
        assert store.verify_invariants() == []
        assert store.storage_of(1000).lookup(key).value == b"v"

    def test_churn_sequence_preserves_invariants(self, store):
        keys = _insert_many(store, 25, seed=12)
        # NB: seed must differ from the network-build seed (13) or the
        # id stream regenerates existing node ids.
        rng = random.Random(777)
        for step in range(10):
            victim = rng.choice(store.network.alive_ids)
            store.network.fail(victim)
            store.on_fail(victim)
            new_id = random_id(rng)
            store.network.join(new_id)
            store.on_join(new_id)
        assert store.verify_invariants() == []
        for key in keys:
            assert store.fetch(key).value == f"v{key}".encode()


class TestReviveReconciliation:
    def test_revived_holder_does_not_resurrect_deleted_object(self, store):
        """Regression: ``delete`` only purges *indexed* holders, so a
        dead holder keeps its local copy; reviving it must not bring a
        deleted object back from the grave."""
        key = random_id(random.Random(21))
        store.insert(key, b"v", delete_proof_hash=hash_password(b"pw"))
        victim = store.replica_set(key)[-1]
        store.network.fail(victim)
        store.on_fail(victim)
        assert store.delete(key, b"pw")
        # the dead node still holds the stale copy...
        assert store.storage_of(victim).contains(key)
        store.network.revive(victim)
        store.on_revive(victim)
        # ...which revival reconciles away instead of resurrecting
        assert not store.storage_of(victim).contains(key)
        assert not store.exists(key)
        assert store.verify_invariants() == []

    def test_revived_displaced_holder_purges_stale_copy(self, store):
        """A holder whose replica was handed off while it was dead must
        drop its stale copy on revival (it is no longer in the
        k-closest set, so a §5 hint probe must not find the object)."""
        key = random_id(random.Random(23))
        store.insert(key, b"v")
        victim = store.replica_set(key)[-1]
        store.network.fail(victim)
        store.on_fail(victim)
        # While the victim is away, closer nodes join: on return it is
        # no longer one of the k closest.
        new_id = key
        for _ in range(store.k):
            new_id += 1
            while store.network.is_registered(new_id):
                new_id += 1
            store.network.join(new_id)
            store.on_join(new_id)
        store.network.revive(victim)
        store.on_revive(victim)
        assert victim not in store.replica_set(key)
        assert victim not in store.holders(key)
        assert not store.storage_of(victim).contains(key)
        assert store.verify_invariants() == []

    def test_revived_intended_holder_readopts(self, store):
        """A revived node that is *still* in the k-closest set gets a
        fresh copy back and displaces whoever covered for it."""
        key = random_id(random.Random(25))
        store.insert(key, b"v")
        victim = store.replica_set(key)[-1]
        store.network.fail(victim)
        store.on_fail(victim)
        covered_by = store.holders(key) - {victim}
        assert len(covered_by) == store.k
        store.network.revive(victim)
        store.on_revive(victim)
        assert victim in store.holders(key)
        assert store.storage_of(victim).lookup(key).value == b"v"
        assert store.holders(key) == set(store.replica_set(key))
        assert store.verify_invariants() == []


class TestEpochMemoisation:
    """replica_set/root are cached per membership epoch (perf path);
    any alive-set change must invalidate them."""

    def test_cached_replica_set_matches_network(self, store):
        key = random_id(random.Random(31))
        first = store.replica_set(key)
        assert first == store.network.replica_candidates(key, store.k)
        assert store.replica_set(key) == first
        assert store.replica_membership(key) == frozenset(first)

    def test_cached_copy_is_not_aliased(self, store):
        key = random_id(random.Random(31))
        stolen = store.replica_set(key)
        stolen.clear()
        assert store.replica_set(key) == store.network.replica_candidates(
            key, store.k
        )

    def test_fail_invalidates_cache(self, store):
        key = random_id(random.Random(31))
        store.insert(key, b"v")
        before = store.replica_set(key)
        root_before = store.network.closest_alive(key)
        victim = before[0]
        store.network.fail(victim)
        store.on_fail(victim)
        after = store.replica_set(key)
        assert victim not in after
        assert after == store.network.replica_candidates(key, store.k)
        assert store.network.closest_alive(key) == store.network.closest_alive(key)
        if victim == root_before:
            assert store.network.closest_alive(key) != root_before

    def test_join_invalidates_cache(self, store):
        key = random_id(random.Random(33))
        store.insert(key, b"v")
        assert store.replica_set(key)  # populate the cache
        new_id = key + 1
        while store.network.is_registered(new_id):
            new_id += 1
        store.network.join(new_id)
        store.on_join(new_id)
        assert store.replica_set(key) == store.network.replica_candidates(
            key, store.k
        )
        assert new_id in store.replica_set(key)

    def test_fetch_access_rule_tracks_epoch(self, store):
        """fetch()'s membership test uses the cached frozenset; after
        churn it must reflect the *current* replica set."""
        key = random_id(random.Random(35))
        store.insert(key, b"v")
        members = store.replica_set(key)
        assert store.fetch(key, requester_id=members[0]).value == b"v"
        outsider = next(
            nid for nid in store.network.alive_ids if nid not in members
        )
        with pytest.raises(ReplicationError):
            store.fetch(key, requester_id=outsider)
        # Promote the outsider into the set by killing enough members.
        while outsider not in store.replica_set(key):
            victim = store.replica_set(key)[-1]
            store.network.fail(victim)
            store.on_fail(victim)
        assert store.fetch(key, requester_id=outsider).value == b"v"
