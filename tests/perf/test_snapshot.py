"""Tests for repro.perf.snapshot: the fork-equivalence contract.

The load-bearing property: a system forked from a base snapshot must
be byte-identical (canonical rows_digest of the full overlay + store
state) to a fresh ``TapSystem.bootstrap(n, seed=rep,
overlay_seed=base)`` — before churn, after identical fail/revive/join
scripts, and under a strict :class:`~repro.obs.InvariantAuditor`.
Forks must also be isolated (mutations never leak to the snapshot,
the base system, or sibling forks) and picklable for worker shipping.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.system import TapSystem
from repro.obs import MetricsRegistry
from repro.pastry.bulk import bucket_bounds
from repro.pastry.node import PastryNode, class_key
from repro.perf import base_snapshot, rows_digest, run_trials, shared_payload
from repro.perf.snapshot import _SNAPSHOT_CACHE

BASE_SEED = 3
N = 150


@pytest.fixture(autouse=True)
def _clear_snapshot_cache():
    _SNAPSHOT_CACHE.clear()
    yield
    _SNAPSHOT_CACHE.clear()


def overlay_rows(system: TapSystem) -> list[dict]:
    """Canonical full-state rows: overlay structure plus store layout.

    Walking every node forces lazy fork materialisation, so equality
    here really is equality of everything a route or a hop can read.
    A dead node's state is never read (``revive`` re-reads its window),
    so it contributes its id and flag alone.
    """
    rows = []
    for nid in sorted(system.network.nodes):
        node = system.network.nodes[nid]
        rows.append({"id": nid, "alive": node.alive})
        if node.alive:
            rows[-1].update({
                "leaf": node.leaves(),
                "cells": sorted([row, col, entry] for (row, col), entry in node.cells().items()),
            })
    rows.append({
        "holders": sorted(
            (key, sorted(system.store.holders(key)))
            for key in system.store.all_keys()
        ),
    })
    return rows


def system_digest(system: TapSystem) -> str:
    return rows_digest(overlay_rows(system))


def spread_victims(system: TapSystem, count: int) -> list[int]:
    """Victims spaced around the ring.

    Consecutive sorted ids would exceed the leaf half-window — a
    pre-existing limit of the repair model unrelated to forking.
    """
    ids = sorted(system.network.alive_ids)
    return ids[3::9][:count]


def churn_script(system: TapSystem) -> None:
    """A deterministic fail/revive/join sequence (same for any system)."""
    victims = spread_victims(system, 12)
    for victim in victims[:8]:
        system.fail_node(victim)
    for victim in victims[:4]:
        system.revive_node(victim)
    rng = system.seeds.pyrandom("equiv-join")
    for _ in range(3):
        new_id = rng.getrandbits(128)
        while new_id in system.network.nodes:
            new_id = rng.getrandbits(128)
        system.join_node(new_id)


class TestForkEquivalence:
    def test_fork_matches_fresh_bootstrap(self):
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()
        for rep in (1, 7):
            fork = snap.fork(seed=rep)
            fresh = TapSystem.bootstrap(N, seed=rep, overlay_seed=BASE_SEED)
            assert system_digest(fork) == system_digest(fresh)

    def test_fork_with_base_seed_matches_base(self):
        # The chaos-runner contract: forking with the seed the base was
        # bootstrapped with reproduces the fresh bootstrap exactly.
        base = TapSystem.bootstrap(N, seed=BASE_SEED)
        digest = system_digest(base)
        fork = base.snapshot().fork(seed=BASE_SEED)
        assert system_digest(fork) == digest

    def test_node_keypairs_survive_capture_pickle_restore(self):
        """A restored system generates the node key pair (CRT form: p,
        q, d_p, d_q, q⁻¹) a fresh bootstrap would, the pair itself
        pickles, and the THA bootstrap that decrypts under it works.
        ``capture`` refuses live TAP state, so the pair is generated on
        the restored side."""
        snap = pickle.loads(pickle.dumps(TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()))
        fork = snap.fork(seed=5)
        fresh = TapSystem.bootstrap(N, seed=5, overlay_seed=BASE_SEED)
        node_id = fork.random_node_id("relay")
        pair = fork.tap_node(node_id).keypair
        assert pair.public == fresh.tap_node(node_id).keypair.public
        clone = pickle.loads(pickle.dumps(pair))
        ct = pair.public.encrypt(b"relay layer", random.Random(1))
        assert clone.decrypt(ct) == pair.decrypt(ct) == b"relay layer"
        assert clone.public.verify(b"m", pair.sign(b"m"))
        alice = fork.tap_node(fork.random_node_id("alice"))
        fork.deploy_thas(alice, count=3)
        assert all(tha.deployed for tha in alice.owned_thas)
        assert fork.send(alice, fork.form_tunnel(alice, length=3), 42, b"x").success

    def test_store_with_objects_round_trips_through_a_pickled_snapshot(self):
        """Capture -> pickle -> restore of a store that holds objects
        (with re-replication history in its index) equals the base:
        same keys, holders, per-node copies and values."""
        base = TapSystem.bootstrap(N, seed=BASE_SEED)
        contents = {
            base.publish(b"file-%d " % i * 8, name=b"name-%d" % i): b"file-%d " % i * 8
            for i in range(12)
        }
        for fid in list(contents)[:4]:
            base.fail_node(base.store.root(fid))
        fork = pickle.loads(pickle.dumps(base.snapshot())).fork(seed=BASE_SEED)
        assert system_digest(fork) == system_digest(base)
        assert fork.store.all_keys() == base.store.all_keys() == sorted(contents)
        assert fork.store.verify_invariants() == []
        for fid, content in contents.items():
            assert fork.store.fetch(fid).value == content
            assert fork.store.holders(fid) == base.store.holders(fid)

        def copies(system):
            return {nid: sorted(storage.keys())
                    for nid, storage in system.store.storages.items()
                    if len(storage)}

        assert copies(fork) == copies(base)

    def test_fork_equivalence_survives_churn(self):
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()
        fork = snap.fork(seed=11)
        fresh = TapSystem.bootstrap(N, seed=11, overlay_seed=BASE_SEED)
        fork.enable_auditing(strict=True)
        fresh.enable_auditing(strict=True)
        churn_script(fork)
        churn_script(fresh)
        assert system_digest(fork) == system_digest(fresh)

    def test_forked_behaviour_matches_fresh(self):
        # Same seed streams => identical tunnels and traffic end to end.
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()

        def exercise(system):
            owner = system.tap_node(system.random_node_id("equiv"))
            system.deploy_thas(owner, count=6)
            tunnel = system.form_tunnel(owner, 3)
            trace = system.send(owner, tunnel, 42, b"probe")
            return [
                [h.hop_id for h in tunnel.hops],
                trace.success,
                [list(r.underlying_path) for r in trace.records],
            ]

        fork_rows = exercise(snap.fork(seed=5))
        fresh_rows = exercise(TapSystem.bootstrap(N, seed=5, overlay_seed=BASE_SEED))
        assert rows_digest(fork_rows) == rows_digest(fresh_rows)

    def test_leaf_sets_round_trip_through_a_pickled_snapshot(self):
        # capture keeps the ids and flags; restore must read the same
        # leaf window of every alive node from them.
        base = TapSystem.bootstrap(N, seed=BASE_SEED)
        churn_script(base)
        network = base.network
        restored = pickle.loads(pickle.dumps(network.snapshot())).restore()
        assert list(restored.nodes) == list(network.nodes)
        assert restored.alive_ids == network.alive_ids
        for nid in network.alive_ids:
            assert restored.nodes[nid].leaves() == network.nodes[nid].leaves()


class TestForkIsolation:
    def test_fork_mutations_do_not_leak(self):
        base = TapSystem.bootstrap(N, seed=BASE_SEED)
        snap = base.snapshot()
        base_digest = system_digest(base)

        fork_a = snap.fork(seed=1)
        fork_b = snap.fork(seed=1)
        churn_script(fork_a)
        assert system_digest(base) == base_digest
        assert system_digest(fork_b) == base_digest

    def test_snapshot_is_picklable(self):
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert system_digest(clone.fork(seed=2)) == system_digest(snap.fork(seed=2))

    def test_snapshot_rejects_tap_state(self):
        system = TapSystem.bootstrap(N, seed=BASE_SEED)
        system.tap_node(system.random_node_id())
        with pytest.raises(ValueError, match="before creating TAP state"):
            system.snapshot()

    def test_join_then_fail_on_fork(self):
        # Registry semantics: joined-then-failed nodes on a fork behave
        # like on a fresh system; no snapshot resurrection.
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()
        fork = snap.fork(seed=4)
        fork.enable_auditing(strict=True)
        rng = fork.seeds.pyrandom("join-fail")
        new_id = rng.getrandbits(128)
        fork.join_node(new_id)
        assert new_id in fork.network.nodes
        fork.fail_node(new_id)
        assert new_id not in fork.network.alive_ids


class TestEpochKeyedCaches:
    @staticmethod
    def _memoised_route(metrics=None):
        """A (network, src, key, path) whose memoised path has an
        intermediate hop."""
        net = TapSystem.bootstrap(N, seed=BASE_SEED).network
        net.metrics = metrics
        ids = net.alive_ids
        src = ids[0]
        key, path = next(
            (key, path) for key in ids[1:] if len(path := net.route(src, key).path) >= 3
        )
        return net, src, key, path

    @staticmethod
    def _memo_counts(metrics):
        return tuple(
            metrics.counter(f"pastry.route.cache_{name}").value
            for name in ("hits", "revalidated", "stale")
        )

    def test_unrelated_failure_is_served_from_the_route_memo(self, monkeypatch):
        metrics = MetricsRegistry()
        net, src, key, path = self._memoised_route(metrics)
        known = set(path).union(
            *(set(net.nodes[p].leaves()) | set(net.nodes[p].cells().values()) for p in path)
        )
        classes = {cls for _, _, cls, _ in net._route_cache[(src, key)][1] if cls is not None}
        bystander = next(
            nid for nid in net.alive_ids
            if nid not in known
            and not classes & {
                class_key(digits, nid >> 128 - 4 * digits, whole)
                for digits in range(33) for whole in (False, True)
            }
        )
        epoch = net.membership_epoch
        net.fail(bystander)
        assert net.membership_epoch == epoch + 1

        def no_walk(self, key):
            raise AssertionError("the memoised route was walked again")

        monkeypatch.setattr(PastryNode, "decision", no_walk)
        hits, revalidated, stale = self._memo_counts(metrics)
        assert net.route(src, key).path == path
        assert self._memo_counts(metrics) == (hits + 1, revalidated + 1, stale)
        # re-stamped with the new epoch: back to the one-compare hit
        assert net.route(src, key).path == path
        assert self._memo_counts(metrics) == (hits + 2, revalidated + 1, stale)

    def test_on_path_failure_recomputes_the_route(self):
        metrics = MetricsRegistry()
        net, src, key, path = self._memoised_route(metrics)
        victim = path[1]  # an intermediate hop: neither source nor root
        net.fail(victim)
        hits, revalidated, stale = self._memo_counts(metrics)
        rerouted = net.route(src, key)
        assert rerouted.success and victim not in rerouted.path
        assert self._memo_counts(metrics) == (hits, revalidated, stale + 1)

    def test_row_entries_matches_cells(self):
        """A fork's nodes list the cells a fresh build's nodes do, row by
        row, and each listed entry is the one :meth:`cell` reads."""
        system = TapSystem.bootstrap(N, seed=BASE_SEED)
        fork = system.snapshot().fork(seed=BASE_SEED)
        for nid in sorted(system.network.nodes)[:10]:
            node = fork.network.nodes[nid]
            for row in range(4):
                listed = {
                    col: entry for (r, col), entry in node.cells(first_row=row).items()
                    if r == row
                }
                assert listed == {
                    col: entry for (r, col), entry in system.network.nodes[nid].cells().items()
                    if r == row
                }
                assert all(node.cell(row, col) == entry for col, entry in listed.items())

    def test_row_entries_tracks_removal(self):
        """A failed entry leaves every row on a fork, and its cell passes
        to the next id of its prefix class."""
        system = TapSystem.bootstrap(N, seed=BASE_SEED)
        fork = system.snapshot().fork(seed=BASE_SEED)
        nid = sorted(system.network.nodes)[0]
        node = fork.network.nodes[nid]
        (row, col), victim = next(iter(node.cells().items()))
        fork.fail_node(victim)
        assert victim not in node.cells().values()
        lower, upper = bucket_bounds(nid, row, col, node.network.b_bits)
        heirs = [a for a in fork.network.alive_ids if lower <= a < upper]
        assert node.cell(row, col) == (heirs[0] if heirs else None)
        assert victim in system.network.nodes[nid].cells().values()  # the base is untouched


def _shared_probe(token):
    payload = shared_payload()
    snap = payload.get(token) if payload else None
    if snap is None:
        return None
    return rows_digest(overlay_rows(snap.fork(seed=9)))


class TestSharedSnapshots:
    def test_base_snapshot_caches_by_token(self):
        calls = []

        def build():
            calls.append(1)
            return TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()

        a = base_snapshot(("t", 1), build)
        b = base_snapshot(("t", 1), build)
        assert a is b
        assert len(calls) == 1
        base_snapshot(("t", 2), build)
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", (1, 2))
    def test_shared_payload_reaches_trials(self, workers):
        snap = TapSystem.bootstrap(N, seed=BASE_SEED).snapshot()
        token = ("shared-test", BASE_SEED, N)
        digests = run_trials(
            _shared_probe, [(token,), (token,)], workers, shared={token: snap}
        )
        expected = rows_digest(overlay_rows(snap.fork(seed=9)))
        assert digests == [expected, expected]

    def test_shared_payload_restored_after_serial_run(self):
        assert shared_payload() is None
        run_trials(_shared_probe, [(("none",),)], 1, shared={})
        assert shared_payload() is None
