"""Tests for the Pastry overlay: build invariants, routing, churn."""

import math
import random
import statistics

import pytest

from repro.pastry.network import PastryNetwork, RoutingError
from repro.util.ids import closest_ids, id_digit, random_id, ring_distance, shared_prefix_digits
from tests.conftest import build_network


class TestBuildInvariants:
    def test_all_nodes_present_and_alive(self, network200):
        assert network200.size == 200
        assert all(n.alive for n in network200)

    def test_alive_ids_sorted(self, network200):
        ids = network200.alive_ids
        assert ids == sorted(ids)

    def test_leaf_sets_are_ring_neighbours(self, network200):
        """Omniscient build must produce the exact |L| closest-per-side."""
        ids = network200.alive_ids
        n = len(ids)
        for idx in (0, 57, 199):
            node = network200.nodes[ids[idx]]
            expect = {ids[(idx + off) % n] for off in range(-8, 9) if off}
            assert node.leaves() == sorted(expect)

    def test_routing_table_cells_valid(self, network200):
        """Every entry sits in the cell its prefix dictates and no cell
        that could be filled is empty (build completeness)."""
        ids = set(network200.alive_ids)
        sample = list(network200.alive_ids)[::20]
        for nid in sample:
            node = network200.nodes[nid]
            for (row, col), entry in node.cells().items():
                assert shared_prefix_digits(nid, entry) == row
                assert id_digit(entry, row) == col
                assert entry in ids

    def test_build_completeness_row0(self, network200):
        """Row 0 must have an entry for every first digit present in
        the network (other than the owner's)."""
        ids = network200.alive_ids
        digits_present = {i >> 124 for i in ids}
        node = network200.nodes[ids[0]]
        own_digit = ids[0] >> 124
        for digit in digits_present - {own_digit}:
            assert node.cell(0, digit) is not None

    def test_empty_build(self):
        net = PastryNetwork.build([])
        assert net.size == 0

    def test_single_node(self):
        net = PastryNetwork.build([42])
        res = net.route(42, 777)
        assert res.success and res.destination == 42 and res.hops == 0


class TestRouting:
    def test_reaches_numerically_closest(self, network200):
        rng = random.Random(3)
        ids = network200.alive_ids
        for _ in range(100):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            res = network200.route(src, key)
            assert res.success
            assert res.destination == network200.closest_alive(key)
            assert res.path[0] == src

    def test_route_to_own_id_is_local(self, network200):
        nid = network200.alive_ids[5]
        res = network200.route(nid, nid)
        assert res.success and res.hops == 0

    def test_hop_count_scales_logarithmically(self):
        """Mean hops ≈ log_16 N (the paper's performance premise)."""
        rng = random.Random(11)
        for n in (100, 400):
            net = build_network(n, seed=n)
            ids = net.alive_ids
            hops = []
            for _ in range(150):
                src = ids[rng.randrange(len(ids))]
                res = net.route(src, random_id(rng))
                assert res.success
                hops.append(res.hops)
            mean = statistics.mean(hops)
            expected = math.log(n, 16)
            assert expected - 1.0 < mean < expected + 1.5

    def test_dead_source_rejected(self, small_network):
        victim = small_network.alive_ids[0]
        small_network.fail(victim)
        with pytest.raises(RoutingError):
            small_network.route(victim, 123)

    def test_path_nodes_alive(self, network200):
        res = network200.route(network200.alive_ids[0], random_id(random.Random(5)))
        assert all(network200.is_alive(nid) for nid in res.path)


class TestReplicaOracle:
    def test_closest_alive_matches_reference(self, network200):
        rng = random.Random(17)
        for _ in range(50):
            key = random_id(rng)
            assert network200.closest_alive(key) == closest_ids(
                network200.alive_ids, key, 1
            )[0]

    def test_replica_candidates_match_reference(self, network200):
        rng = random.Random(19)
        for _ in range(30):
            key = random_id(rng)
            assert network200.replica_candidates(key, 5) == closest_ids(
                network200.alive_ids, key, 5
            )

    def test_candidates_capped_at_population(self):
        net = PastryNetwork.build([1, 2, 3])
        assert len(net.replica_candidates(0, 10)) == 3

    def test_empty_network_rejected(self):
        net = PastryNetwork.build([])
        with pytest.raises(RoutingError):
            net.closest_alive(1)


class TestFailures:
    def test_fail_removes_from_alive(self, small_network):
        victim = small_network.alive_ids[10]
        small_network.fail(victim)
        assert victim not in small_network.alive_ids
        assert not small_network.is_alive(victim)

    def test_routing_survives_failures(self, small_network):
        """Routing must still reach the closest *alive* node after a
        third of the overlay crashes (discover-and-reroute)."""
        rng = random.Random(23)
        victims = rng.sample(small_network.alive_ids, 20)
        for v in victims:
            small_network.fail(v)
        ids = small_network.alive_ids
        for _ in range(50):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            res = small_network.route(src, key)
            assert res.success
            assert res.destination == small_network.closest_alive(key)

    def test_leafset_repair_after_failure(self, small_network):
        ids = small_network.alive_ids
        victim = ids[5]
        neighbour = ids[4]
        small_network.fail(victim)
        node = small_network.nodes[neighbour]
        assert victim not in node.leaves()
        # refilled to full halves (population permitting)
        assert len(node.leaves()) == small_network.leaf_set_size

    def test_fail_twice_is_noop(self, small_network):
        victim = small_network.alive_ids[0]
        small_network.fail(victim)
        size = small_network.size
        small_network.fail(victim)
        assert small_network.size == size

    def test_revive(self, small_network):
        victim = small_network.alive_ids[0]
        small_network.fail(victim)
        small_network.revive(victim)
        assert small_network.is_alive(victim)


class TestJoinProtocol:
    def test_join_reaches_routable_state(self, small_network):
        rng = random.Random(31)
        new_id = random_id(rng)
        small_network.join(new_id)
        assert small_network.is_alive(new_id)
        # Newcomer can route...
        res = small_network.route(new_id, random_id(rng))
        assert res.success
        # ...and is found by others.
        res2 = small_network.route(small_network.alive_ids[0], new_id)
        assert res2.success and res2.destination == new_id

    def test_join_leafset_correct(self, small_network):
        rng = random.Random(37)
        new_id = random_id(rng)
        node = small_network.join(new_id)
        ids = small_network.alive_ids
        idx = ids.index(new_id)
        n = len(ids)
        expect = {ids[(idx + off) % n] for off in range(-8, 9) if off}
        assert node.leaves() == sorted(expect)

    def test_join_duplicate_rejected(self, small_network):
        existing = small_network.alive_ids[0]
        with pytest.raises(ValueError):
            small_network.join(existing)

    def test_join_into_empty(self):
        net = PastryNetwork()
        net.join(99)
        assert net.alive_ids == [99]

    def test_many_joins_keep_routing_exact(self, small_network):
        rng = random.Random(41)
        for _ in range(15):
            small_network.join(random_id(rng))
        ids = small_network.alive_ids
        for _ in range(40):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            res = small_network.route(src, key)
            assert res.success
            assert res.destination == small_network.closest_alive(key)
