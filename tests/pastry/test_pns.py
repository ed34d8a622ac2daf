"""Tests for proximity neighbour selection (PNS) builds."""

import random
import statistics

import pytest

from repro.obs import InvariantAuditor
from repro.pastry.network import PastryNetwork
from repro.simnet.topology import Topology
from repro.util.ids import id_digit, random_id, shared_prefix_digits


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
            assert cells == pns.pns_cells[nid]  # every populated cell is a PNS choice
            assert cells.keys() == plain.cells(nid).keys()
            for (row, col), entry in cells.items():
                assert shared_prefix_digits(nid, entry) == row
                assert id_digit(entry, row) == col
        assert InvariantAuditor(pns).assert_clean("pns").clean

    def test_a_dead_choice_falls_back_to_the_canonical_entry(self):
        rng = random.Random(10)
        ids = [rng.getrandbits(128) for _ in range(150)]
        plain = PastryNetwork.build(ids)
        pns = PastryNetwork.build(ids, proximity=Topology(seed=11).latency)
        owner, cell, choice = next(
            (nid, cell, entry)
            for nid in pns.alive_ids
            for cell, entry in pns.pns_cells[nid].items()
            if entry != plain.cell(nid, *cell)
        )
        for net in (plain, pns):
            net.fail(choice)
        assert pns.cell(owner, *cell) == plain.cell(owner, *cell)
        for _ in range(40):
            src, key = rng.choice(pns.alive_ids), random_id(rng)
            assert pns.route(src, key)[-1] == pns.closest_alive(key)

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
                vals.append(topo.path_latency(net.route(src, random_id(r))))
            return statistics.mean(vals)

        assert mean_route_latency(pns) < mean_route_latency(plain)
        del rng

    def test_sample_cap_respected(self):
        """A tiny proximity_sample still yields a correct overlay."""
        rng = random.Random(8)
        ids = [rng.getrandbits(128) for _ in range(150)]
        topo = Topology(seed=9)
        net = PastryNetwork.build(ids, proximity=topo.latency, proximity_sample=2)
        for _ in range(40):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            assert net.route(src, key)[-1] == net.closest_alive(key)
