"""Tests for the per-node Pastry forwarding rule."""

import random

import pytest

from repro.pastry.network import PastryNetwork
from repro.pastry.node import PastryNode, class_key, ip_for_id
from repro.util.ids import ID_BITS, ID_SPACE, id_digit, random_id, ring_distance, shared_prefix_digits
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
        net = PastryNetwork.build([_id_with_digits(0x8)])
        node = net._node(_id_with_digits(0x8))
        # alone: leaf set empty and not full -> covers all -> self
        assert node.next_hop(12345) == node.node_id

    def test_leafset_delivery_to_closest_leaf(self):
        net = PastryNetwork.build([900, 1000, 1100])
        # non-full leaf set covers everything; 1090 closest to 1100
        assert net.next_hop(1000, 1090) == 1100

    def test_routing_table_hop_preferred_outside_leafset(self):
        owner = _id_with_digits(0x1)
        far = _id_with_digits(0x9, 0x9)
        net = PastryNetwork.build([owner - 1, owner, owner + 1, far], leaf_set_size=2)
        node = net._node(owner)
        key = _id_with_digits(0x9, 0x3)
        assert node.decision(key)[1] is not None  # not rule 1
        nxt = node.next_hop(key)
        # must move toward the key (longer prefix or closer), not to a leaf
        assert shared_prefix_digits(nxt, key) >= shared_prefix_digits(owner, key)
        assert nxt == far

    def test_rare_case_makes_progress(self):
        """Rule 3: the leaf set does not cover the key and its cell is
        empty, so the scan picks the closest known node that shares a
        prefix at least as long (the far leaf does not)."""
        owner = _id_with_digits(0x1, 0x0)
        key = _id_with_digits(0x1, 0xF)
        closer = _id_with_digits(0x1, 0xA)
        net = PastryNetwork.build([owner - 1, owner, owner + 1, closer], leaf_set_size=2)
        assert net.cell(owner, 1, 0xF) is None
        assert net.next_hop(owner, key) == closer


def reference_next_hop(network: PastryNetwork, node: PastryNode, key: int) -> int:
    """The forwarding rule by definition: leaf decisions by the
    re-sorting oracle, every cell by brute force over the alive ids, a
    ``min`` over the pool, checked ``ring_distance`` everywhere."""
    b = network.b_bits
    leaves = OracleLeafSet(node.node_id, network.leaf_set_size)
    leaves.members = set(network.leaves(node.node_id))
    if leaves.covers(key):
        pool = leaves.members | {node.node_id}
        return min(pool, key=lambda x: (ring_distance(x, key), x))
    cells = {}
    for nid in network.alive_ids:
        if nid != node.node_id:
            row = shared_prefix_digits(node.node_id, nid, b)
            cell = (row, id_digit(nid, row, b))
            cells[cell] = min(cells.get(cell, nid), nid)
    own_prefix = shared_prefix_digits(node.node_id, key, b)
    entry = cells.get((own_prefix, id_digit(key, own_prefix, b)))
    if entry is not None:
        return entry
    own_dist = ring_distance(node.node_id, key)
    better = [
        (ring_distance(nid, key), nid)
        for nid in leaves.members | set(cells.values())
        if shared_prefix_digits(nid, key, b) >= own_prefix
        and ring_distance(nid, key) < own_dist
    ]
    return min(better)[1] if better else node.node_id


def _known(node: PastryNode) -> list[int]:
    """Leaf-window members and routing-cell entries, ascending."""
    net = node.network
    return sorted(set(net.leaves(node.node_id)) | set(net.cells(node.node_id).values()))


def _join_beside(node: PastryNode, got: int, near: int) -> None:
    if not node.network.is_alive(near):
        node.network.join(near)


def _fail(node: PastryNode, got: int, near: int) -> None:
    if got != node.node_id:
        node.network.fail(got)


def _fail_and_revive_smaller(node: PastryNode, got: int, near: int) -> None:
    """Fail the decided hop, then revive the smallest dead id below it:
    its prefix class changes twice, its leaf windows may not."""
    net = node.network
    _fail(node, got, near)
    dead = sorted(nid for nid in net.down_ids if nid < got)
    if dead:
        net.revive(dead[-1])


#: Every way a node's decision inputs change, each aimed at the
#: decision just made: drop its answer ``got``, or offer ``near``, an
#: id beside the key.  Leaf windows and routing cells change only by a
#: membership event.
MUTATORS = {
    "learn": _join_beside,
    "forget": _fail,
    "RoutingTable.entry-fails-then-a-smaller-id-revives": _fail_and_revive_smaller,
}


class TestNextHopUnchanged:
    """Derived decisions equal the rule's definition on overlays that
    have been through fails, revives and joins — and, memoised, the
    same decision after any change of what they read."""

    def _churned(self):
        """200 nodes through 90 fails and revives and 10 joins.  Leaf
        sets of 4 leave keys outside every leaf arc whose cell class is
        empty (the rare case)."""
        net = build_network(200, seed=5, leaf_set_size=4)
        rng = random.Random(12)
        down = []
        for step in range(100):
            if step % 10 == 9:
                net.join(random_id(rng))
            elif step % 3 == 2:
                net.revive(down.pop(rng.randrange(len(down))))
            else:
                down.append(net.alive_ids[rng.randrange(net.size)])
                net.fail(down[-1])
        return net, rng

    @staticmethod
    def _keys(nid: int, known: list[int], rng: random.Random) -> list[int]:
        keys = [random_id(rng) for _ in range(4)]
        return keys + [(nid + rng.randrange(-50, 50)) % ID_SPACE, rng.choice(known)]

    def test_after_eager_repair(self):
        net, rng = self._churned()
        branches = set()
        for nid in list(net.alive_ids):
            node = net._node(nid)
            for key in self._keys(nid, _known(node), rng):
                got = node.next_hop(key)
                assert got == reference_next_hop(net, node, key)
                assert net.is_alive(got)
                cls = node.decision(key)[1]
                if got == nid:
                    branches.add("self")
                elif cls is None:
                    branches.add("leaf")
                elif cls == class_key((row := shared_prefix_digits(nid, key)) + 1,
                                      key >> 124 - 4 * row):
                    branches.add("table")
                else:
                    assert cls == class_key(row, key >> 128 - 4 * row, whole=True)
                    branches.add("scan")
        assert branches == {"leaf", "table", "scan", "self"}

    @pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
    def test_memoised_decision_follows_each_mutator(self, mutate):
        """Every decision asked twice, the state changed in between: the
        second answer is the one the changed state decides, and the
        change moved at least one answer (so the memo was put to it)."""
        net, rng = self._churned()
        moved = 0
        for nid in list(net.alive_ids)[::10]:
            node = net._node(nid)
            if not net.is_alive(nid):
                continue
            for key in self._keys(nid, _known(node), rng):
                got = node.next_hop(key)
                assert got == reference_next_hop(net, node, key)
                mutate(node, got, key ^ 1)
                if not net.is_alive(nid):
                    break
                again = node.next_hop(key)
                assert again == reference_next_hop(net, node, key)
                moved += again != got
        assert moved

    def test_repeated_add_keeps_the_memo(self):
        """Reviving an alive leaf or failing a dead id changes no window."""
        net, rng = self._churned()
        node = net._node(net.alive_ids[0])
        keys = [random_id(rng) for _ in range(8)]
        memo = {key: node.next_hop(key) for key in keys}
        for leaf in net.leaves(node.node_id):
            net.revive(leaf)
        for nid in sorted(net.down_ids):
            net.fail(nid)
        assert node.next_hop(keys[0]) == memo[keys[0]]
        assert {key: node._hop_memo[key][0] for key in keys} == memo

    def test_every_new_node_object_starts_with_an_empty_memo(self):
        net = build_network(50, seed=6)
        for nid in net.alive_ids:
            for key in net.alive_ids[::5]:
                net.next_hop(nid, key)
        node = net._node(net.alive_ids[0])
        memo = dict(node._hop_memo)
        assert memo
        twin = PastryNetwork.build(net.alive_ids)._node(node.node_id)
        assert twin._hop_memo == {}
        # same state, so the same decisions once asked
        assert {key: twin.next_hop(key) for key in memo} == {
            key: hit[0] for key, hit in memo.items()
        }
        net.fail(node.node_id)
        net.join(node.node_id)
        newcomer = net._node(node.node_id)
        assert newcomer is not node and newcomer._hop_memo == {}


class TestLearnForget:
    """A node's state follows membership: what joins is learnt, what
    fails is forgotten, in the leaf window and the routing cells alike."""

    def test_learn_populates_both_structures(self):
        net = PastryNetwork.build([1000, 1 << 127])
        net.join(2000)
        assert 2000 in net.leaves(1000)
        assert 2000 in net.cells(1000).values()

    def test_learn_skips_self(self):
        net = PastryNetwork.build([1000])
        assert net.leaves(1000) == [] and net.cells(1000) == {}

    def test_forget_clears_both(self):
        net = PastryNetwork.build([1000, 2000, 1 << 127])
        net.fail(2000)
        assert 2000 not in _known(net._node(1000))
        assert net.leaves(2000) == []

    def test_known_nodes_union(self):
        net = PastryNetwork.build([1000, 2000, 3000])
        assert _known(net._node(1000)) == [2000, 3000]
