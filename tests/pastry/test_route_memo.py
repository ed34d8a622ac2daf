"""The route memo: entries outlive membership events that leave their
path alone, and a memoised answer is always what an uncached walk
would return.

The specification is the walk itself: a twin network whose
``_route_cache`` and per-node ``next_hop`` memos are emptied before
every route must agree with the shipped one after every step of any
fail / revive / join / route sequence, with and without PNS.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.pastry.network import PastryNetwork, RoutingError
from repro.simnet.topology import Topology
from repro.util.ids import ID_BITS, ID_SPACE

N = 200
_ID_RNG = random.Random(2004)
IDS = sorted({_ID_RNG.getrandbits(128) for _ in range(N)})
#: a few sources and keys, so sequences come back to the same entries
SOURCES = IDS[::25]
KEYS = [_ID_RNG.getrandbits(128) for _ in range(8)] + IDS[5::50]


def always_walks(network: PastryNetwork) -> PastryNetwork:
    """Empty the route memo and every node's ``next_hop`` memo before
    every route (``join`` routes too), so each hop is decided afresh.
    Only the nodes built so far hold a memo: the others have not
    decided anything yet."""
    walk = network._route_impl

    def uncached(src_id, key):
        network._route_cache.clear()
        for node in network._nodes.values():
            node._hop_memo.clear()
        return walk(src_id, key)

    network._route_impl = uncached
    return network


def twins(pns: bool = False):
    proximity = Topology(seed=5).latency if pns else None
    return (
        PastryNetwork.build(IDS, proximity=proximity),
        always_walks(PastryNetwork.build(IDS, proximity=proximity)),
    )


def outcome(network: PastryNetwork, op: str, *args):
    try:
        result = getattr(network, op)(*args)
    except (RoutingError, ValueError) as exc:
        return type(exc).__name__
    return result  # a route's path, or None


def same_step(shipped, reference, op, *args):
    assert outcome(shipped, op, *args) == outcome(reference, op, *args), (op, args)
    assert shipped.alive_ids == reference.alive_ids


def beside(key: int, digits: int, tail: int) -> int:
    """An id sharing ``key``'s first ``digits`` hex digits: joining it
    may change the routing cells on the way to ``key`` (a prefix class
    every node reads) without touching most nodes' leaf sets."""
    shift = ID_BITS - 4 * digits
    return key >> shift << shift | tail & ((1 << shift) - 1)


member_st = st.sampled_from(IDS)
newcomer_st = st.one_of(
    member_st,
    st.integers(0, ID_SPACE - 1),
    st.builds(beside, st.sampled_from(KEYS), st.integers(1, 3), st.integers(0, ID_SPACE - 1)),
)
step_st = st.one_of(
    st.tuples(st.just("fail"), member_st),
    st.tuples(st.just("revive"), member_st),
    st.tuples(st.just("join"), newcomer_st),
    st.tuples(st.just("route"), st.sampled_from(SOURCES), st.sampled_from(KEYS)),
    st.tuples(st.just("route"), member_st, st.sampled_from(KEYS)),
)


class TestAgainstUncachedTwin:
    @given(steps=st.lists(step_st, max_size=60), pns=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_answer_after_every_step(self, steps, pns):
        shipped, reference = twins(pns)
        for src in SOURCES:  # start with a warm memo
            for key in KEYS:
                same_step(shipped, reference, "route", src, key)
        for op, *args in steps:
            same_step(shipped, reference, op, *args)
            for key in KEYS[:4]:
                same_step(shipped, reference, "route", SOURCES[0], key)


class TestStamps:
    def test_rejoined_source_is_not_mistaken_for_its_predecessor(self):
        """fail X -> join X installs a fresh node object under X.  The
        stamp holds the node the route crossed, whose window epoch moved
        when it failed; epochs only increase, so the newcomer's is later
        still, and X's surviving entries are dropped."""
        metrics = MetricsRegistry()
        shipped = PastryNetwork.build(IDS, metrics=metrics)
        reference = always_walks(PastryNetwork.build(IDS))
        src, key = SOURCES[1], KEYS[0]
        same_step(shipped, reference, "route", src, key)
        _, stamps, _ = shipped._route_cache[(src, key)]
        old, window_epoch, _, _ = stamps[0]
        assert old is shipped._node(src)

        same_step(shipped, reference, "fail", src)
        same_step(shipped, reference, "join", src)
        new = shipped._node(src)
        assert new is not old
        assert new.window_epoch > old.window_epoch > window_epoch

        same_step(shipped, reference, "route", src, key)
        assert metrics.counter("pastry.route.cache_stale").value == 1
        assert shipped._route_cache[(src, key)][1][0][0] is new

    def test_a_routing_table_change_alone_is_seen(self):
        """No node dies and the source's leaf window does not move: an id
        joins the prefix class of the cell the route left the source by,
        below its entry, and so takes that cell."""
        shipped = PastryNetwork.build(IDS)
        reference = always_walks(PastryNetwork.build(IDS))
        src, key, hop = next(
            (s, k, path[1])
            for s in SOURCES for k in KEYS
            if len(path := shipped.route(s, k)) >= 3
            and shipped._node(s).decision(k)[1] is not None
            and path[1] not in shipped.leaves(s)
        )
        window_epoch = shipped._node(src).window_epoch
        same_step(shipped, reference, "join", hop - 1)
        assert shipped._node(src).window_epoch == window_epoch
        same_step(shipped, reference, "route", src, key)
        assert shipped.route(src, key)[1] == hop - 1

    def test_a_leaf_set_change_alone_is_seen(self):
        """The memoised route read leaf windows only (no hop carries a
        class stamp); the key itself joins, inside the source's window."""
        shipped = PastryNetwork.build(IDS)
        reference = always_walks(PastryNetwork.build(IDS))
        src, key = next(
            (s, k)
            for s in IDS for k in KEYS
            if k not in IDS and len(shipped.route(s, k)) == 2
        )
        assert [cls for *_, cls, _ in shipped._route_cache[(src, key)][1]] == [None, None]
        window_epoch = shipped._node(src).window_epoch
        same_step(shipped, reference, "join", key)
        assert shipped._node(src).window_epoch > window_epoch
        same_step(shipped, reference, "route", src, key)
        assert shipped.route(src, key) == (src, key)


class TestBoundedLifetime:
    def test_two_thousand_events_stay_within_the_limit(self, monkeypatch):
        """Entries survive epochs now, so ROUTE_CACHE_LIMIT is their
        only bound: rotate through every source while the membership
        churns and the memo never outgrows it."""
        limit = 64
        monkeypatch.setattr(PastryNetwork, "ROUTE_CACHE_LIMIT", limit)
        net = PastryNetwork.build(IDS)
        rng = random.Random(7)
        down: list[int] = []
        peak = 0
        for event in range(2000):
            if len(down) >= 20:
                net.revive(down.pop(0))
            else:
                down.append(rng.choice(net.alive_ids))
                net.fail(down[-1])
            src = IDS[event % N]
            for key in KEYS[:4]:
                if net.is_alive(src):
                    assert net.route(src, key)[0] == src
            peak = max(peak, len(net._route_cache))
            assert len(net._route_cache) <= limit
        assert peak == limit  # the valve was reached, not sidestepped

    def test_failed_validation_drops_the_entry(self):
        """The stale entry goes at once: the re-walk that replaces it is
        memoised in its place, not beside it."""
        metrics = MetricsRegistry()
        net = PastryNetwork.build(IDS, metrics=metrics)
        src, key = next(
            (s, k) for s in SOURCES for k in KEYS if len(net.route(s, k)) >= 3
        )
        victim = net.route(src, key)[1]
        net.fail(victim)
        assert (src, key) in net._route_cache
        rerouted = net.route(src, key)
        assert victim not in rerouted
        assert metrics.counter("pastry.route.cache_stale").value == 1
        assert net._route_cache[(src, key)][0] is rerouted

    def test_dead_source_raises_whatever_the_memo_holds(self):
        net = PastryNetwork.build(IDS)
        src, key = SOURCES[2], KEYS[1]
        net.route(src, key)
        assert (src, key) in net._route_cache
        net.fail(src)
        with pytest.raises(RoutingError, match="not alive"):
            net.route(src, key)
        net.revive(src)
        assert net.route(src, key)[0] == src


class TestHandsBackTheStoredPath:
    """A memo hit copies nothing: ``route`` returns the very tuple the
    memo stores, until a membership event voids it."""

    def test_a_repeated_route_is_the_same_object(self):
        net = PastryNetwork.build(IDS)
        for src in SOURCES:
            for key in KEYS:
                assert net.route(src, key) is net.route(src, key)

    def test_a_revalidated_hit_is_the_same_object(self):
        src, key = SOURCES[0], KEYS[0]
        for victim in IDS:
            metrics = MetricsRegistry()
            net = PastryNetwork.build(IDS, metrics=metrics)
            path = net.route(src, key)
            if victim in path:
                continue
            net.fail(victim)
            again = net.route(src, key)
            if metrics.counter("pastry.route.cache_revalidated").value:
                assert again is path
                return
        pytest.fail("every failure voided the memoised path")

    def test_a_stale_entry_returns_a_fresh_walk(self):
        shipped = PastryNetwork.build(IDS)
        reference = always_walks(PastryNetwork.build(IDS))
        src, key = next(
            (s, k) for s in SOURCES for k in KEYS if len(shipped.route(s, k)) >= 3
        )
        path = shipped.route(src, key)
        same_step(shipped, reference, "fail", path[1])
        rerouted = shipped.route(src, key)
        assert rerouted is not path
        assert rerouted == reference.route(src, key)
        assert shipped.route(src, key) is rerouted
