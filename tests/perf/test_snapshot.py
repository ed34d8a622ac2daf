"""Tests for what a sweep's trials share and what outlives an epoch.

A copy of an object overlay (a *fork* in the test names) is a build of
its alive ids: it must read the state the original reads — before
churn, after identical fail/revive/join scripts and under a strict
:class:`~repro.obs.InvariantAuditor` — carry a full
:class:`~repro.core.TapSystem`, and be isolated (mutations never leak
to the original or a sibling fork).  A base
:class:`~repro.perf.compact.CompactSnapshot` reaches trials through
:func:`~repro.perf.base_snapshot` (built once per token) and survives
pickling.  The route memo and the routing cells of a network follow
its membership epoch by epoch.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.analysis.idspace import unpack_words
from repro.core.system import TapSystem
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.past.replication import ReplicatedStore
from repro.pastry.bulk import bucket_bounds
from repro.pastry.network import PastryNetwork
from repro.pastry.node import PastryNode, class_key
from repro.perf import CompactOverlay, base_snapshot, rows_digest
from repro.perf.parallel import _SNAPSHOT_CACHE
from repro.util.rng import SeedSequenceFactory

BASE_SEED = 3
N = 150


@pytest.fixture(autouse=True)
def _clear_snapshot_cache():
    _SNAPSHOT_CACHE.clear()
    yield
    _SNAPSHOT_CACHE.clear()


def base_network() -> PastryNetwork:
    return TapSystem.bootstrap(N, seed=BASE_SEED).network


def base_compact():
    return CompactOverlay.from_ids(base_network().alive_ids).snapshot()


def on_network(network: PastryNetwork, seed: int) -> TapSystem:
    """A TAP system on ``network`` with an empty store and the seed
    streams of ``seed``."""
    return TapSystem(network, ReplicatedStore(network, 3), SeedSequenceFactory(seed))


def overlay_rows(network: PastryNetwork) -> list[dict]:
    """Canonical overlay rows: every registered id, and what a route or
    a hop can read of an alive one."""
    rows = [{"id": nid, "alive": False} for nid in sorted(network.down_ids)]
    rows.extend(
        {
            "id": nid,
            "alive": True,
            "leaf": network.leaves(nid),
            "cells": sorted([row, col, entry] for (row, col), entry in network.cells(nid).items()),
        }
        for nid in network.alive_ids
    )
    return sorted(rows, key=lambda row: row["id"])


def network_digest(network: PastryNetwork) -> str:
    return rows_digest(overlay_rows(network))


def churn_script(network: PastryNetwork, seed: int = 0) -> None:
    """A deterministic fail/revive/join sequence (same for any network)
    with victims spaced around the ring."""
    victims = network.alive_ids[3::9][:12]
    for victim in victims[:8]:
        network.fail(victim)
    for victim in victims[:4]:
        network.revive(victim)
    rng = random.Random(seed)
    for _ in range(3):
        new_id = rng.getrandbits(128)
        while network.is_registered(new_id):
            new_id = rng.getrandbits(128)
        network.join(new_id)


def fork(network: PastryNetwork) -> PastryNetwork:
    """An independent copy of ``network``'s overlay: a build of its
    alive ids."""
    return PastryNetwork.build(network.alive_ids)


class TestForkEquivalence:
    def test_fork_equivalence_survives_churn(self):
        base = base_network()
        forked = fork(base)
        for network in (base, forked):
            auditor = InvariantAuditor(network)
            churn_script(network)
            auditor.assert_clean("after churn")
        assert network_digest(forked) == network_digest(base)

    def test_forked_behaviour_matches_fresh(self):
        # Same seed streams => identical tunnels and traffic end to end.
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

        forked_rows = exercise(on_network(fork(base_network()), seed=5))
        fresh_rows = exercise(TapSystem.bootstrap(N, seed=5, overlay_seed=BASE_SEED))
        assert rows_digest(forked_rows) == rows_digest(fresh_rows)

    def test_leaf_sets_round_trip_through_a_pickled_snapshot(self):
        # A compact capture keeps the ids and alive flags of a churned
        # overlay; its restore and the object build of its alive ids
        # must read the leaf window the churned network reads.
        network = base_network()
        churn_script(network)
        overlay = CompactOverlay.from_ids(network.alive_ids + sorted(network.down_ids))
        overlay.fail(sorted(network.down_ids))
        restored = pickle.loads(pickle.dumps(overlay.snapshot())).restore()
        assert restored.alive_ids() == network.alive_ids
        tracked = unpack_words(restored.hi, restored.lo)
        assert set(tracked) - set(network.alive_ids) == network.down_ids
        rebuilt = PastryNetwork.build(restored.alive_ids())
        twin = restored.twin()
        for nid in network.alive_ids:
            assert rebuilt.leaves(nid) == network.leaves(nid)
            assert twin.leaves(nid) == network.leaves(nid)

    def test_node_keypairs_survive_capture_pickle_restore(self):
        """A system on an object network built from a pickled compact
        base generates the node key pair (CRT form: p, q, d_p, d_q,
        q⁻¹) a fresh bootstrap would, the pair itself pickles, and the
        THA bootstrap that decrypts under it works."""
        snap = pickle.loads(pickle.dumps(base_compact()))
        system = on_network(PastryNetwork.build(snap.restore().alive_ids()), seed=5)
        fresh = TapSystem.bootstrap(N, seed=5, overlay_seed=BASE_SEED)
        node_id = system.random_node_id("relay")
        pair = system.tap_node(node_id).keypair
        assert pair.public.to_bytes() == fresh.tap_node(node_id).keypair.public.to_bytes()
        clone = pickle.loads(pickle.dumps(pair))
        ct = pair.public.encrypt(b"relay layer", random.Random(1))
        assert clone.decrypt(ct) == pair.decrypt(ct) == b"relay layer"
        back = clone.public.encrypt(b"reply layer", random.Random(2))
        assert pair.decrypt(back) == b"reply layer"
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=3)
        assert all(tha.deployed for tha in alice.owned_thas)
        assert system.send(alice, system.form_tunnel(alice, length=3), 42, b"x").success


class TestForkIsolation:
    def test_fork_mutations_do_not_leak(self):
        base = base_network()
        base_digest = network_digest(base)

        fork_a = fork(base)
        fork_b = fork(base)
        churn_script(fork_a)
        assert network_digest(fork_a) != base_digest
        assert network_digest(base) == base_digest
        assert network_digest(fork_b) == base_digest
        churn_script(base)
        assert network_digest(fork_b) == base_digest

    def test_snapshot_is_picklable(self):
        snap = base_compact()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.restore().alive_ids() == snap.restore().alive_ids()
        assert network_digest(fork(base_network())) == network_digest(
            PastryNetwork.build(clone.restore().alive_ids())
        )

    def test_join_then_fail_on_fork(self):
        # Registry semantics: joined-then-failed nodes on a fork stay
        # registered and down; the network it was built from never
        # sees them.
        base = base_network()
        network = fork(base)
        auditor = InvariantAuditor(network)
        new_id = random.Random(4).getrandbits(128)
        network.join(new_id)
        assert network.is_alive(new_id)
        network.fail(new_id)
        auditor.assert_clean("join then fail")
        assert network.is_registered(new_id) and not network.is_alive(new_id)
        assert not base.is_registered(new_id)
        assert not fork(base).is_registered(new_id)


class TestEpochKeyedCaches:
    @staticmethod
    def _memoised_route(metrics=None):
        """A (network, src, key, path) whose memoised path has an
        intermediate hop."""
        net = base_network()
        net.metrics = metrics
        ids = net.alive_ids
        src = ids[0]
        key, path = next(
            (key, path) for key in ids[1:] if len(path := net.route(src, key)) >= 3
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
            *(set(net.leaves(p)) | set(net.cells(p).values()) for p in path)
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
        assert net.route(src, key) == path
        assert self._memo_counts(metrics) == (hits + 1, revalidated + 1, stale)
        # re-stamped with the new epoch: back to the one-compare hit
        assert net.route(src, key) == path
        assert self._memo_counts(metrics) == (hits + 2, revalidated + 1, stale)

    def test_on_path_failure_recomputes_the_route(self):
        metrics = MetricsRegistry()
        net, src, key, path = self._memoised_route(metrics)
        victim = path[1]  # an intermediate hop: neither source nor root
        net.fail(victim)
        hits, revalidated, stale = self._memo_counts(metrics)
        assert victim not in net.route(src, key)
        assert self._memo_counts(metrics) == (hits, revalidated, stale + 1)

    def test_row_entries_matches_cells(self):
        """The cells listed from ``first_row`` on are those of the full
        listing, row by row, and each listed entry is the one
        :meth:`cell` reads."""
        net = base_network()
        for nid in net.alive_ids[:10]:
            for row in range(4):
                listed = {
                    col: entry for (r, col), entry in net.cells(nid, first_row=row).items()
                    if r == row
                }
                assert listed == {
                    col: entry for (r, col), entry in net.cells(nid).items() if r == row
                }
                assert all(net.cell(nid, row, col) == entry for col, entry in listed.items())

    def test_row_entries_tracks_removal(self):
        """A failed entry leaves every row, and its cell passes to the
        next id of its prefix class."""
        net = base_network()
        nid = net.alive_ids[0]
        (row, col), victim = next(iter(net.cells(nid).items()))
        net.fail(victim)
        assert victim not in net.cells(nid).values()
        lower, upper = bucket_bounds(nid, row, col, net.b_bits)
        heirs = [a for a in net.alive_ids if lower <= a < upper]
        assert net.cell(nid, row, col) == (heirs[0] if heirs else None)


class TestSharedSnapshots:
    def test_base_snapshot_caches_by_token(self):
        calls = []

        def build():
            calls.append(1)
            return base_compact()

        a = base_snapshot(("t", 1), build)
        b = base_snapshot(("t", 1), build)
        assert a is b
        assert len(calls) == 1
        base_snapshot(("t", 2), build)
        assert len(calls) == 2
