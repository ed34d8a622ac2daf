"""Tests for the Pastry leaf set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.leafset import LeafSet
from repro.util.ids import ID_SPACE, ring_distance

ids_st = st.integers(min_value=0, max_value=ID_SPACE - 1)


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LeafSet(0, capacity=3)  # odd
        with pytest.raises(ValueError):
            LeafSet(0, capacity=0)

    def test_owner_never_member(self):
        ls = LeafSet(100)
        assert not ls.add(100)
        assert 100 not in ls

    def test_add_and_contains(self):
        ls = LeafSet(100)
        assert ls.add(200)
        assert 200 in ls and len(ls) == 1

    def test_remove(self):
        ls = LeafSet(100)
        ls.add(200)
        ls.remove(200)
        assert 200 not in ls

    def test_remove_missing_is_noop(self):
        LeafSet(100).remove(999)


class TestHalves:
    def test_cw_and_ccw_split(self):
        ls = LeafSet(1000, capacity=4)
        ls.add_all([1001, 1002, 999, 998])
        assert ls.cw_members() == [1001, 1002]
        assert ls.ccw_members() == [999, 998]

    def test_halves_bounded(self):
        ls = LeafSet(1000, capacity=4)
        ls.add_all(range(1001, 1020))  # all clockwise
        assert len(ls.cw_members()) == 2
        # far clockwise nodes count as counterclockwise around the ring
        assert len(ls) <= 4

    def test_eviction_keeps_nearest(self):
        ls = LeafSet(0, capacity=2)
        ls.add(10)
        ls.add(5)  # nearer clockwise: evicts 10 from the cw half
        assert 5 in ls.cw_members()
        assert ls.cw_members()[0] == 5

    def test_wraparound_ccw(self):
        ls = LeafSet(5, capacity=4)
        ls.add_all([ID_SPACE - 1, ID_SPACE - 2])
        assert ls.ccw_members() == [ID_SPACE - 1, ID_SPACE - 2]


class TestCovers:
    def test_non_full_covers_everything(self):
        ls = LeafSet(0, capacity=8)
        ls.add_all([1, 2, 3])
        assert ls.covers(ID_SPACE // 2)

    def test_full_covers_only_arc(self):
        ls = LeafSet(1000, capacity=4)
        ls.add_all([900, 950, 1050, 1100])
        assert ls.is_full()
        assert ls.covers(1000)
        assert ls.covers(925)
        assert ls.covers(1075)
        assert not ls.covers(ID_SPACE // 2)

    def test_covers_boundary_members(self):
        ls = LeafSet(1000, capacity=4)
        ls.add_all([900, 950, 1050, 1100])
        assert ls.covers(900) and ls.covers(1100)


class TestClosest:
    def test_includes_owner_by_default(self):
        ls = LeafSet(1000, capacity=4)
        ls.add_all([900, 1100])
        assert ls.closest(1001) == 1000

    @given(
        owner=ids_st,
        members=st.sets(ids_st, min_size=1, max_size=12),
        key=ids_st,
    )
    @settings(max_examples=100)
    def test_closest_is_truly_closest(self, owner, members, key):
        ls = LeafSet(owner, capacity=16)
        ls.add_all(members)
        pool = ls.members | {owner}
        best = ls.closest(key)
        assert all(
            (ring_distance(best, key), best) <= (ring_distance(m, key), m)
            for m in pool
        )


class TestTrimInvariant:
    @given(
        owner=ids_st,
        members=st.sets(ids_st, min_size=0, max_size=40),
    )
    @settings(max_examples=100)
    def test_members_always_in_a_half(self, owner, members):
        """Every retained member belongs to the bounded CW or CCW half."""
        ls = LeafSet(owner, capacity=8)
        ls.add_all(members)
        halves = set(ls.cw_members()) | set(ls.ccw_members())
        assert ls.members == halves
        assert len(ls.cw_members()) <= 4
        assert len(ls.ccw_members()) <= 4


class OracleLeafSet:
    """The definition the ordered representation replaced, kept as the
    specification: an unordered set, re-ranked on every question."""

    def __init__(self, owner_id, capacity):
        self.owner_id, self.half = owner_id, capacity // 2
        self.members: set[int] = set()

    def cw_members(self):
        return sorted(self.members, key=lambda x: (x - self.owner_id) % ID_SPACE)[: self.half]

    def ccw_members(self):
        return sorted(self.members, key=lambda x: (self.owner_id - x) % ID_SPACE)[: self.half]

    def _trim(self):
        self.members = set(self.cw_members()) | set(self.ccw_members())

    def add(self, node_id):
        if node_id == self.owner_id:
            return False
        self.members.add(node_id)
        self._trim()
        return node_id in self.members

    def add_all(self, node_ids):
        self.members.update(n for n in node_ids if n != self.owner_id)
        self._trim()

    def reload(self, window):
        self.members = set(window)

    def remove(self, node_id):
        self.members.discard(node_id)

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


#: ids within a few steps of the 0 / 2**128 wrap, so sequences collide,
#: halves overlap and the clockwise order wraps; or anywhere on the ring
near_wrap_st = st.integers(-12, 12).map(lambda d: d % ID_SPACE)
any_id_st = st.one_of(near_wrap_st, ids_st)
op_st = st.one_of(
    st.tuples(st.just("add"), any_id_st),
    st.tuples(st.just("remove"), any_id_st),
    st.tuples(st.just("add_all"), st.lists(any_id_st, max_size=24)),
    st.tuples(st.just("reload"), st.lists(any_id_st, max_size=16)),
)


def window(owner: int, ids: list[int], capacity: int) -> list[int]:
    """``reload``'s contract: an ascending, owner-free leaf window."""
    return sorted(set(ids) - {owner})[:capacity]


class TestAgainstOracle:
    @given(
        owner=any_id_st,
        capacity=st.sampled_from([2, 4, 6, 8, 16]),
        ops=st.lists(op_st, max_size=30),
        keys=st.lists(any_id_st, min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_answer_after_every_step(self, owner, capacity, ops, keys):
        real, oracle = LeafSet(owner, capacity), OracleLeafSet(owner, capacity)
        for name, arg in ops:
            if name == "reload":
                arg = window(owner, arg, capacity)
            assert getattr(real, name)(arg) == getattr(oracle, name)(arg)
            assert real.members == oracle.members and len(real) == len(oracle.members)
            assert real.cw_members() == oracle.cw_members()
            assert real.ccw_members() == oracle.ccw_members()
            assert real.is_full() == oracle.is_full()
            pool = sorted(oracle.members | {owner})
            for key in keys + pool[:3]:
                assert (key in real) == (key in oracle.members)
                assert real.covers(key) == oracle.covers(key)
                assert real.closest(key) == oracle.closest(key)


class TestVersion:
    """``version`` is what the network stamps memoised routes with: it
    must move on every change of ``members`` and on nothing else."""

    @given(
        owner=any_id_st,
        capacity=st.sampled_from([2, 4, 8, 16]),
        ops=st.lists(op_st, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_moves_iff_members_changed(self, owner, capacity, ops):
        leaf_set = LeafSet(owner, capacity)
        for name, arg in ops:
            if name == "reload":
                arg = window(owner, arg, capacity)
            members, version = leaf_set.members, leaf_set.version
            getattr(leaf_set, name)(arg)
            assert (leaf_set.version != version) == (leaf_set.members != members)
            assert leaf_set.version >= version

    def test_no_op_calls_leave_it_alone(self):
        leaf_set = LeafSet(1000, capacity=4)
        leaf_set.add_all([998, 999, 1001, 1002])
        version = leaf_set.version
        leaf_set.add(999)  # already a member
        leaf_set.add_all([1001, 1000, 998])  # members and the owner
        leaf_set.add_all([1500, 500])  # trimmed straight back out
        leaf_set.remove(12345)  # never a member
        leaf_set.reload([998, 999, 1001, 1002])  # the same window
        assert leaf_set.version == version
        leaf_set.add(1003)  # refused: further than both clockwise members
        assert leaf_set.version == version
        leaf_set.remove(999)
        assert leaf_set.version == version + 1
