"""Membership repair against the *definition* of the overlay.

A leaf set is a derived view of the sorted alive ids — the |L|/2 ring
neighbours on each side — and a routing cell is the smallest alive id
of its prefix class.  Nothing here compares with an earlier
implementation: after every ``fail`` / ``revive`` / ``join`` the whole
overlay is checked against brute force over ``sorted(alive)``, against
a fresh :meth:`PastryNetwork.build` of the same alive set and against
:class:`CompactOverlay` (the three layers of the canonical-overlay
contract), on rings either side of ``leaf_reach``'s clamp (16 / 17 / 18
nodes for |L| = 16) and small enough to wrap.
"""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.pastry.network import PastryNetwork
from repro.perf.compact import CompactOverlay
from repro.util.ids import ID_SPACE, id_digit, random_id, shared_prefix_digits
from tests.conftest import build_network

SIZES = (1, 2, 3, 16, 17, 18, 40, 300)
HALF = 8


def ring(size: int, seed: int) -> list[int]:
    """``size`` ids, a few of them hugging the 0 / 2**128 wrap."""
    rng = random.Random(seed)
    ids = {d % ID_SPACE for d in (-2, 1, -1)[: size // 3]}
    while len(ids) < size:
        ids.add(random_id(rng))
    return sorted(ids)


def ring_neighbours(alive: list[int], idx: int) -> set[int]:
    """The definition: HALF index neighbours each side of ``alive[idx]``."""
    n = len(alive)
    reach = min(HALF, n - 1)
    return {alive[(idx + off) % n] for off in range(-reach, reach + 1) if off}


def nearest_by_distance(alive: list[int], owner: int) -> set[int]:
    """The same set from ring *distances*, no index arithmetic."""
    others = [x for x in alive if x != owner]
    cw = sorted(others, key=lambda x: (x - owner) % ID_SPACE)[:HALF]
    ccw = sorted(others, key=lambda x: (owner - x) % ID_SPACE)[:HALF]
    return set(cw) | set(ccw)


class World:
    """An overlay, its compact twin, and the checks."""

    def __init__(self, ids):
        self.net = PastryNetwork.build(ids)
        self.compact = CompactOverlay.from_ids(ids)
        self.known = set(ids)
        self.down: list[int] = []

    # -- events ----------------------------------------------------------
    def apply(self, kind: str, pick: int, new_id: int) -> None:
        """One membership event, chosen by ``kind`` where possible and
        by what the ring allows otherwise, then every check."""
        net = self.net
        alive = net.alive_ids
        if kind == "revive" and not self.down:
            kind = "join"
        if kind == "rejoin" and not (self.down and alive):
            kind = "join"
        if kind == "join" and net.is_alive(new_id):
            kind = "fail"
        if kind == "fail" and not alive:
            kind = "join"
        before = self._leaf_states()
        if kind == "fail":
            victim = alive[pick % len(alive)]
            vacated = self._cells_holding(victim)
            net.fail(victim)
            self.compact.fail([victim])
            self.down.append(victim)
            self._check_vacated_cells(vacated)
        elif kind == "revive":
            node_id = self.down.pop(pick % len(self.down))
            net.revive(node_id)
            self.compact.revive([node_id])
        else:  # join a new id, or re-join a registered dead one
            if kind == "rejoin":
                new_id = self.down.pop(pick % len(self.down))
            elif new_id in self.down:  # a new id that happens to be down
                self.down.remove(new_id)
            bootstrap = alive[pick % len(alive)] if alive else None
            net.join(new_id, bootstrap_id=bootstrap)
            self.compact.join([new_id])
            self.known.add(new_id)
        self.check(before)

    # -- the definition ----------------------------------------------------
    def check(self, before=None) -> None:
        net = self.net
        alive = sorted(self.known.difference(self.down))
        assert net.alive_ids == alive
        assert net.down_ids == set(self.down)
        fresh = PastryNetwork.build(alive)
        twin = self.compact.twin()
        for idx, nid in enumerate(alive):
            members = set(net.leaves(nid))
            want = ring_neighbours(alive, idx)
            assert members == want, f"{nid:#x} of {len(alive)}"
            assert members == set(fresh.leaves(nid))
            assert members == set(twin.leaves(nid))
            if len(alive) <= 40:
                assert want == nearest_by_distance(alive, nid)
        if alive:
            src = alive[len(alive) // 3]
            assert net.cells(src) == twin.cells(src)
        for src in alive[:: max(1, len(alive) // 4)]:
            for key in (src ^ 0x5A5A << 100, (alive[len(alive) // 2] + 1) % ID_SPACE):
                path = net.route(src, key)
                assert path == self.compact.route(src, key)
                # each hop took the same branch: None (leaf-covered), an
                # even class key (a prefix cell) or an odd one (rare case)
                assert [net._node(hop).decision(key)[1] for hop in path] == [
                    twin._node(hop).decision(key)[1] for hop in path
                ]
        if before is not None:
            self._check_window_epochs(before)

    def _leaf_states(self):
        net = self.net
        return [
            (node := net._node(nid), net.leaves(nid), net.is_alive(nid), node.window_epoch)
            for nid in sorted(self.known)
        ]

    def _check_window_epochs(self, before) -> None:
        """``window_epoch`` moved iff the window (or the node's own
        liveness, which empties or fills it) changed."""
        net = self.net
        for node, ids, alive, epoch in before:
            nid = node.node_id
            if net._node(nid) is not node:
                continue  # a re-join: a new node object
            moved = (net.leaves(nid), net.is_alive(nid)) != (ids, alive)
            assert (node.window_epoch != epoch) == moved
            assert node.window_epoch >= epoch

    def _cells_holding(self, victim: int):
        net = self.net
        return [
            (nid, cell)
            for nid in net.alive_ids
            for cell, entry in net.cells(nid).items() if entry == victim
        ]

    def _check_vacated_cells(self, vacated) -> None:
        """Refilled iff some alive id belongs in the vacated cell, with
        the smallest of them."""
        net = self.net
        for nid, (row, col) in vacated:
            if not net.is_alive(nid):
                continue
            candidates = [
                a for a in net.alive_ids
                if a != nid and shared_prefix_digits(nid, a) == row and id_digit(a, row) == col
            ]
            assert net.cell(nid, row, col) == (min(candidates) if candidates else None)


KINDS = ("fail", "fail", "fail", "revive", "revive", "join", "join", "rejoin")


@pytest.mark.parametrize("size", SIZES)
def test_seeded_sequences_keep_the_overlay_canonical(size):
    rng = random.Random(size)
    world = World(ring(size, seed=size))
    world.check()
    for _ in range(60 if size == 300 else 150):
        world.apply(rng.choice(KINDS), rng.randrange(1 << 16), random_id(rng))


#: ids a few steps either side of the wrap, or anywhere on the ring
new_id_st = st.one_of(
    st.integers(-12, 12).map(lambda d: d % ID_SPACE),
    st.integers(0, ID_SPACE - 1),
)


@given(
    size=st.sampled_from(SIZES[:-1]),
    events=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 1 << 16), new_id_st),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_any_sequence_keeps_the_overlay_canonical(size, events):
    world = World(ring(size, seed=size + 1000))
    for kind, pick, new_id in events:
        world.apply(kind, pick, new_id)


def test_metrics_say_what_an_event_touched():
    metrics = MetricsRegistry()
    net = build_network(60, seed=3, metrics=metrics)
    reloaded = metrics.counter("pastry.repair.leaf_sets_reloaded")
    # the smallest id of a populous first-digit class: every node of
    # the other fifteen classes routes through it
    victim = net.alive_ids[0]
    holders = sum(victim in net.cells(nid).values() for nid in net.alive_ids)
    assert holders > 2 * HALF
    net.fail(victim)
    assert reloaded.value == 2 * HALF
    net.revive(victim)
    assert reloaded.value == 4 * HALF + 1
    net.join(victim + 1)
    assert reloaded.value == 6 * HALF + 2
    assert "pastry.repair.cells_refilled" not in metrics.snapshot()


def _first_fail_cost(net: PastryNetwork, metrics: MetricsRegistry, victim: int) -> tuple[int, int]:
    """Leaf windows re-read and node states rewritten by failing
    ``victim`` on a fresh copy of ``net``."""
    net = PastryNetwork.build(net.alive_ids, metrics=metrics)
    reloaded = metrics.counter("pastry.repair.leaf_sets_reloaded")
    before_count = reloaded.value
    epochs = {nid: net._node(nid).window_epoch for nid in net.alive_ids}
    net.fail(victim)
    rewritten = sum(
        net._node(nid).window_epoch != epoch for nid, epoch in epochs.items() if nid != victim
    )
    return reloaded.value - before_count, rewritten


def test_first_fail_of_a_class_smallest_id_costs_what_a_median_fail_costs():
    """The smallest id of a first-digit class sits in row 0 of every node
    outside its class, so a stored table would repair about (15/16) N
    cells.  Derived cells need none: the first fail of either node
    rewrites |L| leaf windows and nothing else."""
    metrics = MetricsRegistry()
    net = build_network(1000, seed=2004)
    ids = net.alive_ids
    class_smallest = ids[bisect_left(ids, 0x3 << 124)]
    costs = {
        name: _first_fail_cost(net, metrics, victim)
        for name, victim in (("class-smallest", class_smallest), ("median", ids[500]))
    }
    assert costs["class-smallest"] == costs["median"] == (2 * HALF, 2 * HALF)
    assert "pastry.repair.cells_refilled" not in metrics.snapshot()


def test_a_dead_holder_comes_back_indexed():
    """A node that was down while one of its routing entries failed and
    came back holds the entry again once both are back, and forgets it
    at the entry's next failure."""
    net = build_network(300, seed=13)
    holder, target = next(
        (nid, entry)
        for nid in net.alive_ids
        for entry in sorted(net.cells(nid).values())
        if entry not in net.leaves(nid) and nid not in net.leaves(entry)
    )
    net.fail(holder)
    net.fail(target)
    net.revive(target)
    net.revive(holder)
    assert target in net.cells(holder).values()
    net.fail(target)
    assert target not in {*net.leaves(holder), *net.cells(holder).values()}


def test_routes_match_compact_under_churn():
    """Both engines built on one id set and put through the same fail /
    revive / join sequence — among them the revival of a class-smallest
    id, which a revive that only fills vacant cells leaves out of the
    cells it now owns — route every sampled pair along the same path."""
    rng = random.Random(3600)
    ids = ring(400, seed=36)
    net = PastryNetwork.build(ids)
    compact = CompactOverlay.from_ids(ids)
    class_smallest = ids[bisect_left(ids, 0x9 << 124)]
    down = [class_smallest]
    net.fail(class_smallest)
    compact.fail([class_smallest])
    for step in range(120):
        if step == 60:
            victim = down.pop(0)  # the class-smallest id returns
            assert victim == class_smallest
            net.revive(victim)
            compact.revive([victim])
        elif step % 7 == 6:
            new_id = random_id(rng)
            net.join(new_id)
            compact.join([new_id])
        elif step % 3 == 2 and len(down) > 1:
            victim = down.pop(1 + rng.randrange(len(down) - 1))
            net.revive(victim)
            compact.revive([victim])
        else:
            victim = rng.choice(net.alive_ids)
            down.append(victim)
            net.fail(victim)
            compact.fail([victim])
    assert net.alive_ids == compact.alive_ids()
    for _ in range(600):
        src, key = rng.choice(net.alive_ids), random_id(rng)
        assert net.route(src, key) == compact.route(src, key)


def test_routes_after_churn_are_as_short_as_on_a_fresh_build():
    """600 fail/revive events at N = 1,000 (fifty nodes down, the oldest
    revived first), then 4,000 routes: the same paths as on a fresh
    build over the same alive set, hence the same hops.  Skewed 7 + 9
    leaf sets on a fifth of the ring used to cost about +20 %."""
    rng = random.Random(2004)
    net = build_network(1000, seed=2004)
    down: list[int] = []
    for _ in range(600):
        if len(down) >= 50:
            net.revive(down.pop(0))
        else:
            down.append(rng.choice(net.alive_ids))
            net.fail(down[-1])
    fresh = PastryNetwork.build(net.alive_ids)
    for _ in range(4000):
        src, key = rng.choice(net.alive_ids), random_id(rng)
        assert net.route(src, key) == fresh.route(src, key)
