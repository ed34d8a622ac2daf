"""Tests for the Pastry overlay: build invariants, routing, churn."""

import math
import random
import statistics

import pytest

from repro.obs import MetricsRegistry
from repro.pastry.network import PastryNetwork, RoutingError
from repro.pastry.node import PastryNode
from repro.util.ids import closest_ids, id_digit, random_id, ring_distance, shared_prefix_digits
from tests.conftest import build_network


class TestBuildInvariants:
    def test_all_nodes_present_and_alive(self, network200):
        assert network200.size == 200
        assert not network200.down_ids

    def test_alive_ids_sorted(self, network200):
        ids = network200.alive_ids
        assert ids == sorted(ids)

    def test_leaf_sets_are_ring_neighbours(self, network200):
        """Omniscient build must produce the exact |L| closest-per-side."""
        ids = network200.alive_ids
        n = len(ids)
        for idx in (0, 57, 199):
            expect = {ids[(idx + off) % n] for off in range(-8, 9) if off}
            assert network200.leaves(ids[idx]) == sorted(expect)

    def test_routing_table_cells_valid(self, network200):
        """Every entry sits in the cell its prefix dictates and no cell
        that could be filled is empty (build completeness)."""
        ids = set(network200.alive_ids)
        sample = list(network200.alive_ids)[::20]
        for nid in sample:
            for (row, col), entry in network200.cells(nid).items():
                assert shared_prefix_digits(nid, entry) == row
                assert id_digit(entry, row) == col
                assert entry in ids

    def test_build_completeness_row0(self, network200):
        """Row 0 must have an entry for every first digit present in
        the network (other than the owner's)."""
        ids = network200.alive_ids
        digits_present = {i >> 124 for i in ids}
        own_digit = ids[0] >> 124
        for digit in digits_present - {own_digit}:
            assert network200.cell(ids[0], 0, digit) is not None

    def test_empty_build(self):
        net = PastryNetwork.build([])
        assert net.size == 0

    def test_single_node(self):
        net = PastryNetwork.build([42])
        assert net.route(42, 777) == (42,)


class TestRouting:
    def test_reaches_numerically_closest(self, network200):
        rng = random.Random(3)
        ids = network200.alive_ids
        for _ in range(100):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            path = network200.route(src, key)
            assert path[-1] == network200.closest_alive(key)
            assert path[0] == src

    def test_route_to_own_id_is_local(self, network200):
        nid = network200.alive_ids[5]
        assert network200.route(nid, nid) == (nid,)

    def test_hop_count_scales_logarithmically(self):
        """Mean hops ≈ log_16 N (the paper's performance premise)."""
        rng = random.Random(11)
        for n in (100, 400):
            net = build_network(n, seed=n)
            ids = net.alive_ids
            hops = []
            for _ in range(150):
                src = ids[rng.randrange(len(ids))]
                hops.append(len(net.route(src, random_id(rng))) - 1)
            mean = statistics.mean(hops)
            expected = math.log(n, 16)
            assert expected - 1.0 < mean < expected + 1.5

    def test_dead_source_rejected(self, small_network):
        victim = small_network.alive_ids[0]
        small_network.fail(victim)
        with pytest.raises(RoutingError):
            small_network.route(victim, 123)

    def test_path_nodes_alive(self, network200):
        path = network200.route(network200.alive_ids[0], random_id(random.Random(5)))
        assert all(network200.is_alive(nid) for nid in path)


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
            assert small_network.route(src, key)[-1] == small_network.closest_alive(key)

    def test_leafset_repair_after_failure(self, small_network):
        ids = small_network.alive_ids
        victim = ids[5]
        neighbour = ids[4]
        small_network.fail(victim)
        assert victim not in small_network.leaves(neighbour)
        # refilled to full halves (population permitting)
        assert len(small_network.leaves(neighbour)) == small_network.leaf_set_size

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
        assert small_network.route(new_id, random_id(rng))[0] == new_id
        # ...and is found by others.
        assert small_network.route(small_network.alive_ids[0], new_id)[-1] == new_id

    def test_join_leafset_correct(self, small_network):
        rng = random.Random(37)
        new_id = random_id(rng)
        small_network.join(new_id)
        ids = small_network.alive_ids
        idx = ids.index(new_id)
        n = len(ids)
        expect = {ids[(idx + off) % n] for off in range(-8, 9) if off}
        assert small_network.leaves(new_id) == sorted(expect)

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
            assert small_network.route(src, key)[-1] == small_network.closest_alive(key)


class TestLazyNodes:
    """Node objects hold only memoised decisions, so when they are built
    cannot change a decision, a counter or a route."""

    @staticmethod
    def _counting(monkeypatch) -> list[int]:
        built = []
        init = PastryNode.__init__

        def counted(self, node_id, network):
            built.append(node_id)
            init(self, node_id, network)

        monkeypatch.setattr(PastryNode, "__init__", counted)
        return built

    def test_build_constructs_no_node(self, monkeypatch):
        built = self._counting(monkeypatch)
        net = build_network(1000, seed=2004)
        assert net.size == 1000 and built == []

    def test_a_route_builds_only_the_nodes_on_its_path(self, monkeypatch):
        rng = random.Random(8)
        probe = build_network(1000, seed=2004)
        src = probe.alive_ids[17]
        key = next(k for k in iter(lambda: random_id(rng), None)
                   if len(probe.route(src, k)) >= 3)
        built = self._counting(monkeypatch)
        net = build_network(1000, seed=2004)
        assert built == []
        path = net.route(src, key)
        assert tuple(built) == path

    def test_building_every_node_up_front_changes_nothing(self):
        rng = random.Random(2004)
        ids = sorted({random_id(rng) for _ in range(300)})
        twins = []
        for eager in (True, False):
            metrics = MetricsRegistry()
            net = PastryNetwork.build(ids, metrics=metrics)
            if eager:
                for nid in ids:
                    net._node(nid)
            twins.append((net, metrics))
        sources = ids[::37]
        keys = [random_id(rng) for _ in range(6)] + ids[5::61]
        script = random.Random(36)
        down: list[int] = []
        paths = {id(net): [] for net, _ in twins}
        for step in range(80):
            if step % 9 == 8 and down:  # join under a down id
                event = ("join", down.pop(script.randrange(len(down))))
            elif step % 7 == 6:
                event = ("join", random_id(script))
            elif step % 3 == 2 and down:
                event = ("revive", down.pop(0))
            else:
                victim = script.choice(twins[0][0].alive_ids)
                down.append(victim)
                event = ("fail", victim)
            for net, _ in twins:
                getattr(net, event[0])(event[1])
                for src in sources:
                    for key in keys:
                        if net.is_alive(src):
                            paths[id(net)].append(net.route(src, key))
        (eager, eager_metrics), (lazy, lazy_metrics) = twins
        assert paths[id(eager)] == paths[id(lazy)]
        assert len(lazy._nodes) < len(eager._nodes)
        names = [
            "pastry.repair.leaf_sets_reloaded",
            *(f"pastry.route.cache_{branch}" for branch in ("hits", "revalidated", "stale")),
        ]
        counts = [[metrics.counter(name).value for name in names]
                  for metrics in (eager_metrics, lazy_metrics)]
        assert counts[0] == counts[1]
        assert all(counts[0])
