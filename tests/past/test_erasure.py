"""Tests for the k-of-n erasure backend.

The load-bearing contract: with coding disabled (k=1) the erasure
backend is byte-equivalent to plain replication — an identical
insert/fetch/delete/churn workload driven through both backends yields
digest-identical rows — and with n > k any n-k share losses (crash or
bit-rot) still decode byte-identical objects.
"""

import itertools
import random

import pytest

from repro.core.resilience import ShareHolderHealth
from repro.crypto.hashing import hash_password
from repro.past.erasure import ErasureStore
from repro.past.replication import ReplicatedStore, ReplicationError
from repro.past.storage import StorageError
from repro.obs import MetricsRegistry
from repro.perf import rows_digest
from repro.util.ids import random_id, ring_distance
from tests.conftest import build_network, erasure_invariants

REPLICAS = 3


def _problems(store) -> list[str]:
    if isinstance(store, ErasureStore):
        return erasure_invariants(store)
    return store.verify_invariants()


def _workload(store) -> list[dict]:
    """One scripted insert/fetch/delete/churn run, as tidy rows.

    Driven verbatim through both backends; every observable — fetch
    bytes, delete outcomes, live placements, invariants — lands in the
    rows so ``rows_digest`` equality pins full behavioural equality.
    """
    rng = random.Random(2024)
    net = store.network
    rows: list[dict] = []
    corpus: list[tuple[int, bytes, bytes | None]] = []

    for i in range(18):
        key = random_id(rng)
        value = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 48)))
        proof = f"pw{i}".encode() if i % 3 == 0 else None
        store.insert(key, value,
                     hash_password(proof) if proof else None)
        corpus.append((key, value, proof))
        rows.append({"op": "insert", "key": key,
                     "holders": sorted(store.holders(key))})

    def probe_all(tag: str) -> None:
        for key, value, _ in corpus:
            try:
                got = store.fetch(key).value == value
            except (StorageError, KeyError):
                got = None
            rows.append({"op": f"fetch-{tag}", "key": key, "clean": got})

    probe_all("initial")

    # crash a batch of holders, eager-repair, crash more, revive
    for batch in range(2):
        victims = sorted(rng.sample(sorted(net.alive_ids), 6))
        for node_id in victims:
            net.fail(node_id)
            store.on_fail(node_id)
        probe_all(f"churn{batch}")
        for node_id in victims[:3]:
            net.revive(node_id)
            store.on_revive(node_id)
        rows.append({"op": "revived", "batch": batch,
                     "invariants": _problems(store)})

    # deletes: wrong proof, right proof, undeletable
    for key, _, proof in corpus:
        rows.append({"op": "delete-wrong", "key": key,
                     "out": store.delete(key, b"not-the-password")})
    for key, _, proof in corpus:
        if proof is not None:
            rows.append({"op": "delete", "key": key,
                         "out": store.delete(key, proof)})
    probe_all("after-delete")

    for key in store.all_keys():
        live = sorted(h for h in store.holders(key) if net.is_alive(h))
        rows.append({"op": "state", "key": key, "holders": live})
    rows.append({"op": "invariants", "problems": _problems(store)})
    return rows


class TestReplicationEquivalence:
    def test_k1_matches_replicated_store_bit_for_bit(self):
        """The coding-disabled contract: k=1 erasure == replication."""
        replicated = ReplicatedStore(build_network(70, seed=31), REPLICAS)
        erasure = ErasureStore(build_network(70, seed=31),
                               data_shares=1, total_shares=REPLICAS,
                               eager_repair=True)
        assert rows_digest(_workload(replicated)) == \
            rows_digest(_workload(erasure))


@pytest.fixture()
def lazy_store():
    """(2,4) coded store with lazy repair, plus an inserted corpus."""
    net = build_network(60, seed=17)
    store = ErasureStore(net, data_shares=2, total_shares=4,
                         eager_repair=False)
    rng = random.Random(9)
    corpus = {}
    for _ in range(6):
        key = random_id(rng)
        value = bytes(rng.getrandbits(8) for _ in range(37))
        store.insert(key, value)
        corpus[key] = value
    return store, corpus


class TestDegradedReads:
    def test_any_n_minus_k_crashes_decode_byte_identical(self, lazy_store):
        store, corpus = lazy_store
        net = store.network
        for key, value in corpus.items():
            holders = sorted(store.holders(key))
            assert len(holders) == 4
            for downed in itertools.combinations(holders, 2):
                for node_id in downed:
                    net.fail(node_id)
                assert store.fetch(key).value == value
                for node_id in downed:
                    net.revive(node_id)

    def test_n_minus_k_plus_one_crashes_fail(self, lazy_store):
        store, corpus = lazy_store
        net = store.network
        key, _ = next(iter(corpus.items()))
        downed = sorted(store.holders(key))[:3]
        for node_id in downed:
            net.fail(node_id)
        with pytest.raises(StorageError):
            store.fetch(key)
        for node_id in downed:
            net.revive(node_id)

    def test_any_n_minus_k_bitrot_decodes_byte_identical(self, lazy_store):
        store, corpus = lazy_store
        items = list(corpus.items())
        # one fresh key per rot pattern: rot is at-rest, not revertible
        for (key, value), pattern in zip(
            items, itertools.combinations(range(4), 2)
        ):
            holders = sorted(store.holders(key))
            for slot in pattern:
                assert store.corrupt_replica(holders[slot], key)
            assert store.fetch(key).value == value

    def test_mixed_crash_and_rot_within_budget_decodes(self, lazy_store):
        store, corpus = lazy_store
        key, value = list(corpus.items())[-1]
        holders = sorted(store.holders(key))
        store.network.fail(holders[0])
        assert store.corrupt_replica(holders[1], key)
        assert store.fetch(key).value == value
        store.network.revive(holders[0])

    def test_rot_beyond_n_minus_k_fails_closed(self, lazy_store):
        """Too many rotted shares: fetch refuses rather than serving
        corrupted bytes (replication's silent-rot failure mode)."""
        store, corpus = lazy_store
        key, _ = list(corpus.items())[-2]
        for node_id in sorted(store.holders(key))[:3]:
            assert store.corrupt_replica(node_id, key)
        with pytest.raises(StorageError):
            store.fetch(key)

    def test_health_orders_rotted_holder_last(self, lazy_store):
        store, corpus = lazy_store
        key, value = next(iter(corpus.items()))
        health = ShareHolderHealth()
        # rot the holder fetch probes first (closest to the key), so
        # the breaker sees its failures
        rotted = min(store.holders(key),
                     key=lambda h: (ring_distance(h, key), h))
        store.corrupt_replica(rotted, key)
        for _ in range(3):
            assert store.fetch(key, health=health).value == value
        assert health.is_open(rotted)
        ordered = health.order(sorted(store.holders(key)))
        assert ordered[-1] == rotted

    def test_health_tracker_hedges_one_extra_holder(self, lazy_store, monkeypatch):
        """A read ordered by a health tracker verifies one holder
        beyond k; a bare read stops at the first k healthy ones."""
        store, corpus = lazy_store
        key, value = next(iter(corpus.items()))
        probed: list[int] = []
        stored_share = store.stored_share

        def counting(holder, k):
            probed.append(holder)
            return stored_share(holder, k)

        monkeypatch.setattr(store, "stored_share", counting)
        assert store.fetch(key).value == value
        assert len(probed) == store.k
        probed.clear()
        assert store.fetch(key, health=ShareHolderHealth()).value == value
        assert len(probed) == store.k + 1


class TestAccessControlAndErrors:
    def test_outside_replica_set_rejected(self, lazy_store):
        store, corpus = lazy_store
        key = next(iter(corpus))
        outsider = next(
            node_id for node_id in store.network.alive_ids
            if node_id not in store.replica_membership(key)
        )
        with pytest.raises(ReplicationError):
            store.fetch(key, requester_id=outsider)

    def test_duplicate_insert_rejected(self, lazy_store):
        store, corpus = lazy_store
        key = next(iter(corpus))
        with pytest.raises(ReplicationError):
            store.insert(key, b"other")

    def test_non_bytes_value_rejected(self, lazy_store):
        store, _ = lazy_store
        with pytest.raises(TypeError):
            store.insert(123, "not-bytes")

    def test_missing_key_raises(self, lazy_store):
        store, _ = lazy_store
        with pytest.raises(StorageError):
            store.fetch(424242)

    def test_invalid_params_rejected(self):
        net = build_network(10, seed=3)
        with pytest.raises(ValueError):
            ErasureStore(net, data_shares=0, total_shares=3)
        with pytest.raises(ValueError):
            ErasureStore(net, data_shares=4, total_shares=3)
        with pytest.raises(ValueError):
            ErasureStore(net, 2, 4, lease_term=0)


class TestEagerRepair:
    def test_repair_below_k_sound_shares_drops_the_object_once(self):
        """The loss arm: with fewer than k shares that verify, repair
        cannot decode, so the key leaves the index and every holder's
        storage, and ``objects.lost`` counts it once."""
        metrics = MetricsRegistry()
        store = ErasureStore(build_network(50, seed=23), 2, 4,
                             eager_repair=False, metrics=metrics)
        key = 0xDEADBEEF
        store.insert(key, bytes(range(64)))
        holders = sorted(store.holders(key))
        for node_id in holders[:3]:
            assert store.corrupt_replica(node_id, key)
        assert store.repair_key(key) == (0, 0)
        assert store.repair_key(key) == (0, 0)
        assert key not in store.all_keys() and not store.holders(key)
        assert not any(store.storage_of(h).contains(key) for h in holders)
        assert metrics.counter("erasure.objects.lost").value == 1

    def test_on_fail_restores_full_share_count(self):
        net = build_network(50, seed=23)
        store = ErasureStore(net, 2, 4, eager_repair=True)
        rng = random.Random(4)
        key = random_id(rng)
        value = bytes(rng.getrandbits(8) for _ in range(64))
        store.insert(key, value)
        for node_id in sorted(store.holders(key))[:2]:
            net.fail(node_id)
            store.on_fail(node_id)
        assert erasure_invariants(store) == []
        assert len(store.holders(key)) == 4
        assert store.fetch(key).value == value

    def test_repaired_shares_are_byte_identical(self):
        """Re-coding is deterministic: a repaired share equals the one
        it replaces, so hash-tree roots survive repair."""
        net = build_network(50, seed=23)
        store = ErasureStore(net, 2, 4, eager_repair=True)
        key = 0xDEADBEEF
        store.insert(key, bytes(range(64)))
        originals = {
            share.index: share.data
            for share in (store.stored_share(h, key) for h in store.holders(key))
        }
        root_before = next(
            store.stored_share(h, key).root for h in store.holders(key)
        )
        victim = max(store.holders(key))
        net.fail(victim)
        store.on_fail(victim)
        for holder in store.holders(key):
            share = store.stored_share(holder, key)
            assert share.data == originals[share.index]
            assert share.root == root_before
