"""Tests for the invariant auditor: clean passes and injected faults."""

import random

import pytest

from repro.obs import InvariantAuditor, InvariantViolationError, MetricsRegistry
from repro.past.replication import ReplicatedStore
from repro.past.storage import StoredObject
from repro.util.ids import random_id
from tests.conftest import build_network


@pytest.fixture()
def network():
    return build_network(50, seed=31)


@pytest.fixture()
def store(network):
    return ReplicatedStore(network, replication_factor=3)


class TestCleanAudits:
    def test_fresh_overlay_is_clean(self, network):
        report = InvariantAuditor(network).assert_clean("fresh")
        assert report.clean
        assert report.checks_run == 2  # sorted-alive, decisions

    def test_store_check_included_when_given(self, network, store):
        for seed in range(5):
            store.insert(random_id(random.Random(seed)), b"v")
        report = InvariantAuditor(network, store).assert_clean("with store")
        assert report.checks_run == 3

    def test_clean_through_membership_events(self, network, store):
        keys = [random_id(random.Random(s)) for s in range(10)]
        for key in keys:
            store.insert(key, b"v")
        auditor = InvariantAuditor(network, store)
        rng = random.Random(41)
        for _ in range(5):
            victim = rng.choice(network.alive_ids)
            network.fail(victim)
            store.on_fail(victim)
            auditor.assert_clean(f"fail {victim:#x}")
        assert len(auditor.history) == 5

    def test_report_str_mentions_context(self, network):
        report = InvariantAuditor(network).run("my-event")
        assert "my-event" in str(report)
        assert "clean" in str(report)


class TestInjectedViolations:
    def test_alive_flag_divergence_detected(self, network):
        victim = network.alive_ids[7]
        # Mark the id down without going through network.fail: it is
        # now both alive and down.
        network._down.add(victim)
        report = InvariantAuditor(network).run("down but indexed")
        assert report.violations == [f"sorted-alive: {victim:#x} indexed alive but down"]

    @staticmethod
    def _missed_stamp(network, holder, key, event, node_id):
        """Run ``event(node_id)`` with a stamp that misses ``holder``: its memo
        for ``key``, taken before the event, is served as is, and only
        the audit's fresh decision sees that the window changed."""
        before = holder.next_hop(key)
        epoch = holder.window_epoch
        event(node_id)
        assert holder.window_epoch != epoch  # the event changed the window
        holder.window_epoch = epoch  # the missed stamp
        assert holder.next_hop(key) == before
        report = InvariantAuditor(network).run("missed stamp")
        assert report.violations == [
            f"memo-coherence: {holder.node_id:#x} memoises {before:#x} for "
            f"{key:#x}, decides {holder._decide(key)[0]:#x}"
        ]
        return before

    def test_missing_immediate_neighbour_detected(self, network):
        """A join between two neighbours: the holder's stale window lacks
        its new immediate neighbour and still routes past it."""
        ids = network.alive_ids
        newcomer = (ids[3] + ids[4]) // 2
        holder = network._node(ids[3])
        self._missed_stamp(network, holder, newcomer, network.join, newcomer)
        assert network.closest_alive(newcomer) == newcomer

    def test_skewed_leaf_set_detected(self, network):
        """A fail at the far edge of the window: the holder's stale window
        is no longer its slice of the ring and still names the lost id."""
        ids = network.alive_ids
        holder, victim = network._node(ids[20]), ids[28]
        missed = self._missed_stamp(network, holder, victim, network.fail, victim)
        assert missed == victim

    def test_dead_reference_detected(self, network):
        """A fail of an immediate neighbour: the holder's memo, taken
        before the fail, still names the failed node."""
        ids = network.alive_ids
        holder, victim = network._node(ids[5]), ids[6]
        missed = self._missed_stamp(network, holder, victim, network.fail, victim)
        assert missed == victim
        assert not network.is_alive(victim)

    def test_wrong_hop_memo_detected(self, network):
        """One planted ``next_hop`` memo entry that names the wrong node,
        under stamps that still hold: served as is, so only the audit's
        fresh decision sees it."""
        node = network._node(network.alive_ids[4])
        key = random_id(random.Random(2))
        right, cls, stamp = node.decision(key)
        wrong = next(nid for nid in network.alive_ids if nid not in (right, node.node_id))
        node._hop_memo[key] = (wrong, cls, stamp)
        assert node.next_hop(key) == wrong
        report = InvariantAuditor(network).run("planted hop memo")
        assert report.violations == [
            f"memo-coherence: {node.node_id:#x} memoises {wrong:#x} for "
            f"{key:#x}, decides {right:#x}"
        ]

    def test_wrong_route_memo_detected(self, network):
        src = network.alive_ids[9]
        key = random_id(random.Random(3))
        path = network.route(src, key)
        network._route_cache[(src, key)][0] = path + path[:1]
        report = InvariantAuditor(network).run("planted route memo")
        assert len(report.violations) == 1
        assert report.violations[0].startswith(f"memo-coherence: route {src:#x}")
        # a memo entry whose stamps no longer hold is never served
        network.fail(path[-1])
        assert InvariantAuditor(network).run("stale memo").clean

    def test_index_without_copy_detected(self, network, store):
        key = random_id(random.Random(1))
        store.insert(key, b"v")
        holder = next(iter(store.holders(key)))
        store.storage_of(holder).drop(key)  # bypass _unplace
        report = InvariantAuditor(network, store).run("dropped copy")
        assert any("storage-index" in v for v in report.violations)

    def test_copy_without_index_detected(self, network, store):
        rogue = network.alive_ids[0]
        store.storage_of(rogue).insert(StoredObject(777, b"stale"))
        report = InvariantAuditor(network, store).run("rogue copy")
        assert any("storage-index" in v for v in report.violations)

    def test_assert_clean_raises(self, network):
        network._down.add(network.alive_ids[7])
        auditor = InvariantAuditor(network)
        with pytest.raises(InvariantViolationError):
            auditor.assert_clean("bad")
        # the failing report is still recorded for post-mortems
        assert auditor.history and not auditor.history[-1].clean


class TestMetricsIntegration:
    def test_audit_counters(self, network):
        metrics = MetricsRegistry()
        auditor = InvariantAuditor(network, metrics=metrics)
        auditor.run("one")
        network._down.add(network.alive_ids[2])
        auditor.run("two")
        assert metrics.counter("obs.audit.runs").value == 2
        assert metrics.counter("obs.audit.violations").value >= 1
