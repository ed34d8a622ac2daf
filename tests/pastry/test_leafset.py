"""The leaf set, read from the sorted alive ids.

A node's leaf set is its window of the alive ids
(:meth:`PastryNetwork.leaves`), and rule 1 of its forwarding decision —
deliver to the numerically closest id when the key lies on the
window's arc — reads the same ids.  :class:`OracleLeafSet`, an
unordered set re-ranked on every question, is the specification both
are held to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.network import PastryNetwork
from repro.util.ids import ID_SPACE, ring_distance

ids_st = st.integers(min_value=0, max_value=ID_SPACE - 1)
FAR = 1 << 127


class OracleLeafSet:
    """The leaf set by definition: an unordered set, re-ranked on every
    question."""

    def __init__(self, owner_id, capacity):
        self.owner_id, self.half = owner_id, capacity // 2
        self.members: set[int] = set()

    def cw_members(self):
        return sorted(self.members, key=lambda x: (x - self.owner_id) % ID_SPACE)[: self.half]

    def ccw_members(self):
        return sorted(self.members, key=lambda x: (self.owner_id - x) % ID_SPACE)[: self.half]

    def is_full(self):
        cw, ccw = self.cw_members(), self.ccw_members()
        return len(cw) == self.half and len(ccw) == self.half and not set(cw) & set(ccw)

    def covers(self, key):
        if not self.is_full():
            return True
        cw_far, ccw_far = self.cw_members()[-1], self.ccw_members()[-1]
        return (key - ccw_far) % ID_SPACE <= (cw_far - ccw_far) % ID_SPACE

    def closest(self, key):
        pool = self.members | {self.owner_id}
        return min(pool, key=lambda x: (ring_distance(x, key), x))


def rule_one(node, key):
    """Rule 1's pick for ``key``, or ``None`` when it does not fire
    (every other branch names the prefix class it read)."""
    hop, cls, _ = node.decision(key)
    return hop if cls is None else None


def leaves_of(ids, owner, capacity=4):
    return PastryNetwork.build(ids, leaf_set_size=capacity).leaves(owner)


def registered(net: PastryNetwork) -> list[int]:
    """Every id the overlay holds, alive or down, ascending."""
    return sorted([*net.alive_ids, *net.down_ids])


class TestBasics:
    def test_capacity_validation(self):
        for size in (0, 1, 3, 7):  # odd or below 2
            for make in (
                lambda: PastryNetwork(leaf_set_size=size),
                lambda: PastryNetwork.build([], leaf_set_size=size),
                lambda: PastryNetwork.build([1, 2], leaf_set_size=size),
            ):
                with pytest.raises(ValueError, match="leaf-set capacity"):
                    make()

    def test_owner_never_member(self):
        net = PastryNetwork.build([100, 200, 300], leaf_set_size=2)
        assert all(nid not in net.leaves(nid) for nid in net.alive_ids)

    def test_add_and_contains(self):
        net = PastryNetwork.build([100, 300])
        net.join(200)
        assert net.leaves(200) == [100, 300]
        assert 200 in net.leaves(100) and 200 in net.leaves(300)

    def test_remove(self):
        net = PastryNetwork.build([100, 200, 300])
        net.fail(200)
        assert [net.leaves(nid) for nid in registered(net)] == [[300], [], [100]]

    def test_remove_missing_is_noop(self):
        net = PastryNetwork.build([100, 200, 300])
        net.fail(200)
        nodes = [net._node(nid) for nid in registered(net)]
        state = [(net.leaves(node.node_id), node.window_epoch) for node in nodes]
        net.fail(999)
        net.fail(200)
        net.revive(100)
        assert [(net.leaves(node.node_id), node.window_epoch) for node in nodes] == state


class TestHalves:
    def test_cw_and_ccw_split(self):
        leaves = leaves_of([998, 999, 1000, 1001, 1002, FAR], 1000)
        assert leaves == [998, 999, 1001, 1002]
        spec = OracleLeafSet(1000, 4)
        spec.members = set(leaves)
        assert spec.cw_members() == [1001, 1002] and spec.ccw_members() == [999, 998]

    def test_halves_bounded(self):
        # far clockwise nodes count as counterclockwise around the ring
        assert leaves_of(range(1000, 1020), 1000) == [1001, 1002, 1018, 1019]

    def test_eviction_keeps_nearest(self):
        assert leaves_of([0, 5, 10, FAR], 0, capacity=2) == [5, FAR]

    def test_wraparound_ccw(self):
        leaves = leaves_of([5, 1000, 2000, FAR, ID_SPACE - 2, ID_SPACE - 1], 5)
        assert leaves == [1000, 2000, ID_SPACE - 2, ID_SPACE - 1]


class TestCovers:
    def test_non_full_covers_everything(self):
        net = PastryNetwork.build([0, 1, 2, 3], leaf_set_size=8)
        assert rule_one(net._node(0), ID_SPACE // 2) == 3

    def test_full_covers_only_arc(self):
        net = PastryNetwork.build([900, 950, 1000, 1050, 1100, FAR], leaf_set_size=4)
        node = net._node(1000)
        assert [rule_one(node, key) for key in (1000, 925, 1075)] == [1000, 900, 1050]
        assert rule_one(node, ID_SPACE // 2) is None

    def test_covers_boundary_members(self):
        net = PastryNetwork.build([900, 950, 1000, 1050, 1100, FAR], leaf_set_size=4)
        assert [rule_one(net._node(1000), key) for key in (900, 1100)] == [900, 1100]


class TestClosest:
    def test_includes_owner_by_default(self):
        assert PastryNetwork.build([900, 1000, 1100]).next_hop(1000, 1001) == 1000

    @given(members=st.sets(ids_st, min_size=1, max_size=16), key=ids_st)
    @settings(max_examples=100)
    def test_closest_is_truly_closest(self, members, key):
        node = PastryNetwork.build(members)._node(min(members))
        best = rule_one(node, key)
        assert all((ring_distance(best, key), best) <= (ring_distance(m, key), m) for m in members)


class TestTrimInvariant:
    @given(owner=ids_st, members=st.sets(ids_st, max_size=40))
    @settings(max_examples=100)
    def test_members_always_in_a_half(self, owner, members):
        """The window is the |L|/2 nearest ids in each ring direction."""
        leaves = PastryNetwork.build(members | {owner}, leaf_set_size=8).leaves(owner)
        spec = OracleLeafSet(owner, 8)
        spec.members = members - {owner}
        assert set(leaves) == set(spec.cw_members()) | set(spec.ccw_members())
        assert len(leaves) <= 8


#: ids within a few steps of the 0 / 2**128 wrap, so windows wrap and
#: sequences collide; or anywhere on the ring
near_wrap_st = st.integers(-12, 12).map(lambda d: d % ID_SPACE)
any_id_st = st.one_of(near_wrap_st, ids_st)
op_st = st.tuples(st.sampled_from(["fail", "revive", "join"]), st.integers(0, 99), any_id_st)
ring_st = st.sets(any_id_st, min_size=1, max_size=19)
capacity_st = st.sampled_from([2, 4, 6, 8, 16])


def apply(net: PastryNetwork, op) -> None:
    """One membership event: fail an alive id, revive a dead one or
    join ``new_id`` (refused if alive)."""
    kind, pick, new_id = op
    alive = net.alive_ids
    dead = sorted(net.down_ids)
    if kind == "fail" and alive:
        net.fail(alive[pick % len(alive)])
    elif kind == "revive" and dead:
        net.revive(dead[pick % len(dead)])
    else:
        try:
            net.join(new_id)
        except ValueError:  # already alive
            pass


class TestAgainstOracle:
    @given(ids=ring_st, capacity=capacity_st, ops=st.lists(op_st, max_size=12),
           keys=st.lists(any_id_st, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_every_answer_after_every_step(self, ids, capacity, ops, keys):
        """After every event, every alive node's window is its oracle
        halves of the alive ids, and rule 1 fires exactly when the
        oracle loaded with that window covers the key and then picks
        the oracle's closest — memoised answers included."""
        net = PastryNetwork.build(ids, leaf_set_size=capacity)
        for op in [None, *ops]:
            if op is not None:
                apply(net, op)
            alive = net.alive_ids
            for nid in alive:
                node = net._node(nid)
                spec = OracleLeafSet(nid, capacity)
                spec.members = set(alive) - {nid}
                window = set(spec.cw_members()) | set(spec.ccw_members())
                assert set(net.leaves(nid)) == window
                spec.members = window
                for key in keys + alive[:3] + net.leaves(nid)[-2:]:
                    want = spec.closest(key) if spec.covers(key) else None
                    assert rule_one(node, key) == want


class TestVersion:
    """``window_epoch`` is what memoised decisions and routes are stamped
    with: it must move whenever a node's window or liveness changes."""

    @given(ids=ring_st, capacity=capacity_st, ops=st.lists(op_st, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_moves_iff_members_changed(self, ids, capacity, ops):
        net = PastryNetwork.build(ids, leaf_set_size=capacity)
        for op in ops:
            before = [
                (node := net._node(nid), net.leaves(nid), net.is_alive(nid), node.window_epoch)
                for nid in registered(net)
            ]
            apply(net, op)
            for node, leaves, alive, epoch in before:
                nid = node.node_id
                if net._node(nid) is not node:
                    continue  # a join under a down id: a new node object
                moved = (net.leaves(nid), net.is_alive(nid)) != (leaves, alive)
                assert (node.window_epoch != epoch) == moved
                assert node.window_epoch >= epoch

    def test_no_op_calls_leave_it_alone(self):
        net = PastryNetwork.build([998, 999, 1000, 1001, 1002, FAR], leaf_set_size=4)
        net.fail(FAR)
        nodes = [net._node(nid) for nid in registered(net)]
        epochs = [node.window_epoch for node in nodes]
        membership_epoch = net.membership_epoch
        net.fail(FAR)  # already dead
        net.fail(12345)  # never a member
        net.revive(999)  # alive
        with pytest.raises(ValueError):
            net.join(1000)  # alive
        assert [node.window_epoch for node in nodes] == epochs
        assert net.membership_epoch == membership_epoch
