"""Tests for the TapSystem façade, TapNode, and tunnel refresh."""

import pytest

from repro.core.system import TapSystem
from repro.pastry.node import ip_for_id


class TestBootstrap:
    def test_builds_requested_size(self, tap_system):
        assert tap_system.network.size == 150
        assert tap_system.store.k == 3

    def test_deterministic_per_seed(self):
        a = TapSystem.bootstrap(num_nodes=30, seed=1)
        b = TapSystem.bootstrap(num_nodes=30, seed=1)
        assert a.network.alive_ids == b.network.alive_ids

    def test_seed_changes_overlay(self):
        a = TapSystem.bootstrap(num_nodes=30, seed=1)
        b = TapSystem.bootstrap(num_nodes=30, seed=2)
        assert a.network.alive_ids != b.network.alive_ids

    def test_ip_index_complete(self, tap_system):
        assert len(tap_system.ip_index) == 150
        for ip, nid in tap_system.ip_index.items():
            assert ip_for_id(nid) == ip


class TestTapNodeRegistry:
    def test_lazily_created_and_cached(self, tap_system):
        nid = tap_system.network.alive_ids[0]
        assert tap_system.tap_node(nid) is tap_system.tap_node(nid)

    def test_unregistered_id_is_refused(self, tap_system):
        """An id the overlay never registered gets no TAP state, and
        reviving it changes nothing; a failed node stays registered."""
        network = tap_system.network
        stranger = next(nid for nid in range(1, 100) if not network.is_registered(nid))
        with pytest.raises(KeyError):
            tap_system.tap_node(stranger)
        assert stranger not in tap_system.tap_nodes
        epoch = network.membership_epoch
        network.revive(stranger)
        assert network.membership_epoch == epoch
        assert not network.is_registered(stranger) and stranger not in tap_system.tap_nodes
        victim = network.alive_ids[0]
        tap_system.fail_node(victim)
        assert tap_system.tap_node(victim).node_id == victim

    def test_random_node_deterministic_per_label(self, tap_system):
        assert tap_system.random_node_id("x") == tap_system.random_node_id("x")
        assert tap_system.random_node_id("x") != tap_system.random_node_id("y")


class TestBidGeneration:
    def test_bid_maps_to_owner(self, tap_system):
        """The reply's last leg must land on the initiator: the bid's
        numerically closest node is the generating node."""
        for label in range(10):
            node = tap_system.tap_node(tap_system.random_node_id(label))
            bid = node.make_bid(tap_system.network.alive_ids)
            assert tap_system.network.closest_alive(bid) == node.node_id

    def test_bids_vary(self, tap_system):
        node = tap_system.tap_node(tap_system.random_node_id("bids"))
        ids = tap_system.network.alive_ids
        bids = {node.make_bid(ids) for _ in range(20)}
        assert len(bids) > 1

    def test_bid_not_own_id(self, tap_system):
        """bid != nodeid keeps the last leg unlinkable to the node id."""
        node = tap_system.tap_node(tap_system.random_node_id("own"))
        ids = tap_system.network.alive_ids
        assert all(node.make_bid(ids) != node.node_id for _ in range(10))


class TestMembershipEvents:
    def test_fail_node_keeps_store_consistent(self, tap_system):
        fid = tap_system.publish(b"data")
        victim = tap_system.store.network.closest_alive(fid)
        tap_system.fail_node(victim)
        assert tap_system.store.verify_invariants() == []
        assert tap_system.store.fetch(fid).value == b"data"

    def test_join_node_updates_ip_index(self, tap_system):
        new_id = 12345678901234567890
        tap_system.join_node(new_id)
        assert tap_system.ip_index[ip_for_id(new_id)] == new_id

    def test_mass_failure_without_repair_loses_objects(self, tap_system):
        fid = tap_system.publish(b"data")
        holders = list(tap_system.store.holders(fid))
        tap_system.fail_nodes(holders, repair_after=False)
        assert not tap_system.store.exists(fid)


class TestHintResolution:
    def test_hint_cache_populated(self, tap_system):
        alice = tap_system.tap_node(tap_system.random_node_id("alice"))
        tap_system.deploy_thas(alice, count=6)
        tunnel = tap_system.form_tunnel(alice, length=3, use_hints=True)
        for tha, hint in zip(tunnel.hops, tunnel.hint_ips):
            ip, root = alice.hint_cache[tha.hop_id]
            assert hint == ip
            assert root == tap_system.network.closest_alive(tha.hop_id)


class TestRefreshPolicy:
    def test_refresh_replaces_anchors(self, tap_system):
        """§7.2's refresh: fresh anchors, a new tunnel over them, the
        old tunnel retired with its anchors deleted."""
        alice = tap_system.tap_node(tap_system.random_node_id("alice"))
        tap_system.deploy_thas(alice, count=6)
        old = tap_system.form_tunnel(alice, length=3, now=0.0)
        old_hopids = set(old.hop_ids)
        tap_system.deploy_thas(alice, count=old.length)
        new = tap_system.form_tunnel(alice, length=old.length, now=2.0)
        tap_system.retire_tunnel(alice, old, delete=True)
        assert new.length == old.length
        assert new.formed_at == 2.0
        # old anchors removed from the DHT (deleted with PW)
        for hop_id in old_hopids:
            assert not tap_system.store.exists(hop_id)
        # new tunnel avoids the deleted anchors
        assert set(new.hop_ids).isdisjoint(old_hopids)
        # and the new tunnel still works
        trace = tap_system.send(alice, new, 42, b"x")
        assert trace.success
