"""Tests for leases and the background verify/repair crawler."""

import random

import pytest

from repro.past.coding import share_length
from repro.past.crawler import RepairCrawler
from repro.past.erasure import ErasureStore
from repro.past.storage import StorageError
from repro.util.ids import random_id
from tests.conftest import build_network, erasure_invariants

K, N, LEASE = 2, 4, 6


def _populated(num_objects=5, object_bytes=40, seed=21, **kwargs):
    net = build_network(60, seed=seed)
    store = ErasureStore(net, K, N, lease_term=LEASE,
                         eager_repair=False, **kwargs)
    rng = random.Random(seed)
    corpus = {}
    for _ in range(num_objects):
        key = random_id(rng)
        value = bytes(rng.getrandbits(8) for _ in range(object_bytes))
        store.insert(key, value)
        corpus[key] = value
    return store, corpus


def _run_until_stable(crawler, max_passes=16):
    """Passes until one completes the cycle repairing nothing (the
    converged fixpoint), or ``max_passes`` elapse; every report."""
    reports = []
    for _ in range(max_passes):
        reports.append(report := crawler.run_pass())
        if not (report.budget_exhausted or report.shares_rebuilt
                or report.corrupt_found or report.objects_lost):
            break
    return reports


def _snapshot(store):
    """Every (key, holder, stored share) triple, deterministically."""
    return [
        (key, holder, store.stored_share(holder, key))
        for key in store.all_keys()
        for holder in sorted(store.holders(key))
    ]


class TestHealthyPassIsNoOp:
    def test_byte_identical_and_counts_zero(self):
        store, _ = _populated()
        crawler = RepairCrawler(store, seed=1)
        before = _snapshot(store)
        report = crawler.run_pass()
        assert _snapshot(store) == before
        assert report.keys_scanned == len(store.all_keys())
        assert report.shares_verified == len(store.all_keys()) * N
        assert report.corrupt_found == 0
        assert report.leases_renewed == 0
        assert report.shares_rebuilt == 0
        assert report.bytes_moved == 0
        assert not report.budget_exhausted

    def test_repeated_passes_stay_idempotent(self):
        store, _ = _populated()
        crawler = RepairCrawler(store, seed=1)
        crawler.run_pass()
        before = _snapshot(store)
        for _ in range(3):
            crawler.run_pass()
        assert _snapshot(store) == before


class TestLeases:
    def test_unrenewed_leases_expire_and_shares_gc(self):
        store, corpus = _populated()
        for _ in range(LEASE + 1):
            store.advance_epoch()
        key = next(iter(corpus))
        assert store.holders(key) == set()
        with pytest.raises(StorageError):
            store.fetch(key)

    def test_crawler_renews_before_expiry(self):
        store, corpus = _populated()
        crawler = RepairCrawler(store, seed=1, renew_before=2)
        renewed = 0
        for _ in range(3 * LEASE):
            store.advance_epoch()
            renewed += crawler.run_pass().leases_renewed
        assert renewed > 0
        for key, value in corpus.items():
            assert store.fetch(key).value == value
        assert erasure_invariants(store) == []

    def test_skewed_clock_drops_early_and_crawler_heals(self):
        store, corpus = _populated()
        crawler = RepairCrawler(store, seed=1,
                                budget_bytes_per_epoch=None)
        key, value = next(iter(corpus.items()))
        skewed = min(store.holders(key))
        store.set_clock_skew(skewed, LEASE + 2)
        store.advance_epoch()
        # the skewed holder GC'd its share a whole term early...
        assert skewed not in store.holders(key)
        assert store.fetch(key).value == value
        # ...and one crawler pass re-codes it back
        crawler.run_pass()
        assert len(store.holders(key)) == N
        assert erasure_invariants(store) == []


class TestCrashConvergence:
    def test_unbudgeted_pass_restores_invariants(self):
        store, corpus = _populated()
        crawler = RepairCrawler(store, seed=1,
                                budget_bytes_per_epoch=None)
        net = store.network
        rng = random.Random(3)
        for node_id in sorted(rng.sample(sorted(net.alive_ids), 8)):
            net.fail(node_id)
            store.on_fail(node_id)
        assert erasure_invariants(store)
        reports = _run_until_stable(crawler)
        assert erasure_invariants(store) == []
        assert not reports[-1].shares_rebuilt
        for key, value in corpus.items():
            assert store.fetch(key).value == value

    def test_two_passes_after_crash_converge(self):
        """Crawler restarts mid-damage must converge, not oscillate:
        the pass after the one that finishes repairing is a no-op."""
        store, _ = _populated()
        crawler = RepairCrawler(store, seed=1,
                                budget_bytes_per_epoch=None)
        net = store.network
        victim = max(h for key in store.all_keys()
                     for h in store.holders(key))
        net.fail(victim)
        store.on_fail(victim)
        first = crawler.run_pass()
        after_first = _snapshot(store)
        second = crawler.run_pass()
        assert first.shares_rebuilt > 0
        assert second.shares_rebuilt == 0
        assert second.corrupt_found == 0
        assert _snapshot(store) == after_first
        assert erasure_invariants(store) == []


class TestBudget:
    def test_budgeted_recovery_is_bounded_per_epoch(self):
        store, corpus = _populated(num_objects=8, object_bytes=64)
        budget = 256
        crawler = RepairCrawler(store, seed=1,
                                budget_bytes_per_epoch=budget)
        net = store.network
        rng = random.Random(5)
        for node_id in sorted(rng.sample(sorted(net.alive_ids), 10)):
            net.fail(node_id)
            store.on_fail(node_id)
        frag = share_length(64, K)
        # one repair action reads k shares and writes at most n
        overshoot = (K + N) * frag
        reports = _run_until_stable(crawler, max_passes=64)
        assert all(r.bytes_moved <= budget + overshoot for r in reports)
        assert any(r.budget_exhausted for r in reports[:-1])
        assert erasure_invariants(store) == []
        for key, value in corpus.items():
            assert store.fetch(key).value == value

    def test_bitrot_is_found_and_scrubbed(self):
        store, corpus = _populated()
        crawler = RepairCrawler(store, seed=1,
                                budget_bytes_per_epoch=None)
        key, value = next(iter(corpus.items()))
        rotted = sorted(store.holders(key))[:2]
        for node_id in rotted:
            assert store.corrupt_replica(node_id, key)
        report = crawler.run_pass()
        assert report.corrupt_found == 2
        assert report.shares_rebuilt >= 2
        assert erasure_invariants(store) == []
        assert store.fetch(key).value == value

    def test_invalid_params_rejected(self):
        store, _ = _populated()
        with pytest.raises(ValueError):
            RepairCrawler(store, budget_bytes_per_epoch=0)
        with pytest.raises(ValueError):
            RepairCrawler(store, renew_before=-1)
