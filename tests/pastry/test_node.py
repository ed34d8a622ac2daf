"""Tests for the per-node Pastry forwarding rule."""

import copy
import pickle
import random

import pytest

from repro.pastry.node import PastryNode, ip_for_id
from repro.util.ids import ID_BITS, ID_SPACE, random_id, ring_distance, shared_prefix_digits
from tests.conftest import build_network
from tests.pastry.test_leafset import OracleLeafSet


def _id_with_digits(*digits: int) -> int:
    value = 0
    for d in digits:
        value = (value << 4) | d
    return value << (ID_BITS - 4 * len(digits))


class TestIpForId:
    def test_deterministic(self):
        assert ip_for_id(123) == ip_for_id(123)

    def test_valid_ipv4_shape(self):
        octets = ip_for_id(random_id(random.Random(1))).split(".")
        assert len(octets) == 4
        assert all(1 <= int(o) <= 254 for o in octets)

    def test_different_ids_usually_differ(self):
        rng = random.Random(2)
        ips = {ip_for_id(random_id(rng)) for _ in range(100)}
        assert len(ips) > 95


class TestNextHop:
    def test_leafset_delivery_to_self(self):
        node = PastryNode(_id_with_digits(0x8))
        # alone: leaf set empty and not full -> covers all -> self
        assert node.next_hop(12345) == node.node_id

    def test_leafset_delivery_to_closest_leaf(self):
        node = PastryNode(1000)
        node.learn([900, 1100])
        # non-full leaf set covers everything; 1090 closest to 1100
        assert node.next_hop(1090) == 1100

    def test_routing_table_hop_preferred_outside_leafset(self):
        owner = _id_with_digits(0x1)
        node = PastryNode(owner, leaf_set_size=2)
        near = [owner + 1, owner - 1]
        far = _id_with_digits(0x9, 0x9)
        node.learn(near + [far])
        key = _id_with_digits(0x9, 0x3)
        nxt = node.next_hop(key)
        # must move toward the key (longer prefix or closer), not to a leaf
        assert shared_prefix_digits(nxt, key) >= shared_prefix_digits(owner, key)
        assert nxt == far

    def test_rare_case_makes_progress(self):
        """Rule 3: the leaf set does not cover the key and its cell is
        empty, so the scan picks the closest known node that shares a
        prefix at least as long (the far leaf does not)."""
        owner = _id_with_digits(0x1, 0x0)
        node = PastryNode(owner, leaf_set_size=2)
        key = _id_with_digits(0x1, 0xF)
        closer = _id_with_digits(0x1, 0xA)
        node.learn([owner - 1, owner + 1, closer])
        assert not node.leaf_set.covers(key)
        assert node.routing_table.entry_for_key(key) is None
        assert node.next_hop(key) == closer


def reference_next_hop(node: PastryNode, key: int) -> int:
    """The forwarding rule as it stood before the ordered leaf set:
    leaf decisions by the re-sorting oracle, a ``min`` over the pool,
    checked ``ring_distance`` for every candidate of the scan."""
    leaves = OracleLeafSet(node.node_id, node.leaf_set.capacity)
    leaves.members = node.leaf_set.members
    if leaves.covers(key):
        pool = leaves.members | {node.node_id}
        return min(pool, key=lambda x: (ring_distance(x, key), x))
    entry = node.routing_table.entry_for_key(key)
    if entry is not None:
        return entry
    b_bits = node.routing_table.b_bits
    own_prefix = shared_prefix_digits(node.node_id, key, b_bits)
    own_dist = ring_distance(node.node_id, key)
    better = [
        (ring_distance(nid, key), nid)
        for nid in node.known_nodes()
        if shared_prefix_digits(nid, key, b_bits) >= own_prefix
        and ring_distance(nid, key) < own_dist
    ]
    return min(better)[1] if better else node.node_id


def _install_vacant(node: PastryNode, got: int, near: int) -> None:
    table = node.routing_table
    cell = table.cell_for(near)
    if cell is not None and table.lookup(*cell) is None:
        table.install_cell(*cell, near)


def _load_with(node: PastryNode, got: int, near: int) -> None:
    table = node.routing_table
    cell = table.cell_for(near)
    if cell is not None:
        table.load_cells({**table._cells, cell: near})


#: Every way a node's state changes, each aimed at the decision just
#: made: drop its answer ``got``, or offer ``near``, an id beside the key.
MUTATORS = {
    "learn": lambda node, got, near: node.learn([near]),
    "forget": lambda node, got, near: node.forget(got),
    "LeafSet.add": lambda node, got, near: node.leaf_set.add(near),
    "LeafSet.remove": lambda node, got, near: node.leaf_set.remove(got),
    "LeafSet.reload": lambda node, got, near: node.leaf_set.reload(
        sorted(node.leaf_set.members - {got})),
    "LeafSet.bulk_load": lambda node, got, near: node.leaf_set.bulk_load(
        node.leaf_set.members - {got}),
    "RoutingTable.add": lambda node, got, near: node.routing_table.add(near, replace=True),
    "RoutingTable.remove": lambda node, got, near: node.routing_table.remove(got),
    "RoutingTable.install_cell": _install_vacant,
    "RoutingTable.load_cells": _load_with,
}


class TestNextHopUnchanged:
    """Same decision as before the leaf set was ordered, on overlays
    whose leaf sets have been through repair, refill and staleness —
    and, memoised, the same decision after any change of state."""

    def _churned(self, stale: bool = False):
        """200 nodes through 90 fails and revives; with ``stale`` every
        alive node then re-learns the 30 still down — dead references
        repair never leaves, made the way a stray message would."""
        net = build_network(200, seed=5)
        rng = random.Random(12)
        down = []
        for step in range(90):
            if step % 3 == 2:
                net.revive(down.pop(rng.randrange(len(down))))
            else:
                down.append(net.alive_ids[rng.randrange(net.size)])
                net.fail(down[-1])
        if stale:
            for nid in net.alive_ids:
                net.nodes[nid].learn(down)
        return net, rng

    @staticmethod
    def _keys(nid: int, known: list[int], rng: random.Random) -> list[int]:
        keys = [random_id(rng) for _ in range(4)]
        return keys + [(nid + rng.randrange(-50, 50)) % ID_SPACE, rng.choice(known)]

    def _check(self, stale: bool) -> set[str]:
        net, rng = self._churned(stale)
        branches = set()
        for nid in list(net.alive_ids):
            node = net.nodes[nid]
            for key in self._keys(nid, sorted(node.known_nodes()), rng):
                got = node.next_hop(key)
                assert got == reference_next_hop(node, key)
                if got == nid:
                    branches.add("self")
                elif node.leaf_set.covers(key):
                    branches.add("leaf")
                elif got == node.routing_table.entry_for_key(key):
                    branches.add("table")
                else:
                    branches.add("scan")
                if not net.is_alive(got):
                    branches.add("dead")
        return branches

    def test_after_eager_repair(self):
        assert self._check(stale=False) == {"leaf", "table", "scan", "self"}

    def test_with_stale_dead_references(self):
        assert self._check(stale=True) == {"leaf", "table", "scan", "self", "dead"}

    @pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
    def test_memoised_decision_follows_each_mutator(self, mutate):
        """Every decision asked twice, the state changed in between: the
        second answer is the one the changed state decides, and the
        change moved at least one answer (so the memo was put to it)."""
        net, rng = self._churned(stale=True)
        moved = 0
        for nid in list(net.alive_ids):
            node = net.nodes[nid]
            for key in self._keys(nid, sorted(node.known_nodes()), rng):
                got = node.next_hop(key)
                assert got == reference_next_hop(node, key)
                mutate(node, got, key ^ 1)
                again = node.next_hop(key)
                assert again == reference_next_hop(node, key)
                moved += again != got
        assert moved

    def test_repeated_add_keeps_the_memo(self):
        net, rng = self._churned()
        node = net.nodes[net.alive_ids[0]]
        keys = [random_id(rng) for _ in range(8)]
        memo = {key: node.next_hop(key) for key in keys}
        for leaf in node.leaf_set.members:
            node.leaf_set.add(leaf)
        for entry in node.routing_table.entries:
            node.routing_table.add(entry)
        assert node.next_hop(keys[0]) == memo[keys[0]]
        assert node._hop_memo == memo

    def test_every_new_node_object_starts_with_an_empty_memo(self):
        net = build_network(50, seed=6)
        for node in net:
            for key in net.alive_ids[::5]:
                node.next_hop(key)
        node = net.nodes[net.alive_ids[0]]
        memo = dict(node._hop_memo)
        assert memo
        copies = [
            pickle.loads(pickle.dumps(node)),
            copy.deepcopy(node),
            net.snapshot().restore().nodes[node.node_id],
        ]
        assert [c._hop_memo for c in copies] == [{}] * 3
        for twin in copies:  # same state, so the same decisions once asked
            assert {key: twin.next_hop(key) for key in memo} == memo
        net.fail(node.node_id)
        assert net.join(node.node_id)._hop_memo == {}


class TestLearnForget:
    def test_learn_populates_both_structures(self):
        node = PastryNode(1000)
        node.learn([2000])
        assert 2000 in node.leaf_set
        assert 2000 in node.routing_table

    def test_learn_skips_self(self):
        node = PastryNode(1000)
        node.learn([1000])
        assert len(node.leaf_set) == 0

    def test_forget_clears_both(self):
        node = PastryNode(1000)
        node.learn([2000])
        node.forget(2000)
        assert 2000 not in node.leaf_set
        assert 2000 not in node.routing_table

    def test_known_nodes_union(self):
        node = PastryNode(1000)
        node.learn([2000, 3000])
        assert node.known_nodes() == {2000, 3000}
