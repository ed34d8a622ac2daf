"""Tests for proximity neighbour selection (PNS) builds.

A PNS cell is read from the alive ids like any other: the nearest to
its owner of the first ``PNS_SAMPLE`` ids of its prefix class.  The
oracle below writes that definition out by brute force.
"""

import random
import statistics

import pytest

from repro.obs import InvariantAuditor
from repro.pastry import network as network_module
from repro.pastry.network import PastryNetwork
from repro.simnet.topology import Topology
from repro.util.ids import ID_BITS, id_digit, random_id, shared_prefix_digits
from tests.conftest import path_latency


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(3)
    ids = [rng.getrandbits(128) for _ in range(400)]
    topo = Topology(seed=4)
    plain = PastryNetwork.build(ids)
    pns = PastryNetwork.build(ids, proximity=topo.latency)
    return ids, topo, plain, pns


class TestCorrectness:
    def test_routing_still_exact(self, setup):
        _, _, _, pns = setup
        rng = random.Random(5)
        ids = pns.alive_ids
        for _ in range(80):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            assert pns.route(src, key)[-1] == pns.closest_alive(key)

    def test_entries_occupy_valid_cells(self, setup):
        _, _, plain, pns = setup
        for nid in pns.alive_ids[::40]:
            cells = pns.cells(nid)
            assert cells.keys() == plain.cells(nid).keys()
            for (row, col), entry in cells.items():
                assert shared_prefix_digits(nid, entry) == row
                assert id_digit(entry, row) == col
        assert InvariantAuditor(pns).assert_clean("pns").clean

    def test_leaf_sets_unaffected(self, setup):
        """PNS only changes routing-table fill; leaf sets are ring
        neighbours by definition."""
        _, _, plain, pns = setup
        for nid in plain.alive_ids[::40]:
            assert plain.leaves(nid) == pns.leaves(nid)


class TestLocality:
    def test_entries_are_closer_on_average(self, setup):
        _, topo, plain, pns = setup
        def mean_entry_latency(net):
            vals = []
            for nid in net.alive_ids[::10]:
                for entry in net.cells(nid).values():
                    vals.append(topo.latency(nid, entry))
            return statistics.mean(vals)

        assert mean_entry_latency(pns) < 0.8 * mean_entry_latency(plain)

    def test_routes_have_lower_propagation(self, setup):
        _, topo, plain, pns = setup
        rng = random.Random(6)
        def mean_route_latency(net):
            r = random.Random(7)
            vals = []
            for _ in range(100):
                src = net.alive_ids[r.randrange(net.size)]
                vals.append(path_latency(topo, net.route(src, random_id(r))))
            return statistics.mean(vals)

        assert mean_route_latency(pns) < mean_route_latency(plain)
        del rng


def oracle_cells(alive, owner, latency, sample):
    """PNS cells from the definition: per cell, filter the alive ids by
    the cell's prefix, keep the first ``sample``, take the nearest to
    the owner (ties toward the smaller id)."""
    out = {}
    members = list(alive)  # the alive ids sharing ``row`` digits with owner
    for row in range(ID_BITS // 4):
        own = id_digit(owner, row)
        for col in range(16):
            pool = [c for c in members if id_digit(c, row) == col][:sample]
            if col != own and pool:
                out[row, col] = min(pool, key=lambda c: (latency(owner, c), c))
        members = [c for c in members if id_digit(c, row) == own]
        if members == [owner]:
            return out
    return out


def population(seed, n=300):
    """``n`` random ids, half of them under one 2-digit prefix so that
    deeper rows hold classes larger than the sample too."""
    rng = random.Random(seed)
    ids = {rng.getrandbits(128) for _ in range(n // 2)}
    cluster = rng.getrandbits(8) << 120
    while len(ids) < n:
        ids.add(cluster | rng.getrandbits(120))
    return sorted(ids)


class TestDerivedChoice:
    @pytest.mark.parametrize("sample", [2, 16])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_cells_match_the_definition(self, seed, sample, monkeypatch):
        monkeypatch.setattr(network_module, "PNS_SAMPLE", sample)
        ids = population(seed)
        latency = Topology(seed=seed).latency
        net = PastryNetwork.build(ids, proximity=latency)
        for owner in ids:
            assert net.cells(owner) == oracle_cells(ids, owner, latency, sample)
        rng = random.Random(seed)
        for _ in range(40):
            key = random_id(rng)
            assert net.route(rng.choice(ids), key)[-1] == net.closest_alive(key)

    def test_churned_network_equals_a_fresh_build(self):
        """After a fail/revive/join script a PNS network reads the cells
        a fresh PNS build of its alive ids reads: a choice that died is
        replaced by the nearest of the class's current first few."""
        ids = population(24)
        latency = Topology(seed=24).latency
        net = PastryNetwork.build(ids, proximity=latency)
        rng = random.Random(25)
        for nid in ids[::30]:  # warm the memos the script must void
            net.route(nid, random_id(rng))
        victims = ids[1::7]
        for victim in victims:
            net.fail(victim)
        for victim in victims[::3]:
            net.revive(victim)
        for _ in range(10):
            net.join(rng.getrandbits(128))
        fresh = PastryNetwork.build(net.alive_ids, proximity=latency)
        for nid in net.alive_ids:
            assert net.cells(nid) == fresh.cells(nid)
        for _ in range(60):
            src, key = rng.choice(net.alive_ids), random_id(rng)
            assert net.route(src, key) == fresh.route(src, key)
        assert InvariantAuditor(net).assert_clean("pns churn").clean
