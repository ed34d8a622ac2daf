"""Tests for repro.perf.packet: the route_many equivalence contract.

The load-bearing property (DESIGN.md §6f): the vectorised packet plane
must make *the same forwarding decision* as the scalar
``CompactOverlay.route`` for every packet at every hop — and therefore,
through the PR 6 contract, the same decisions as the object engine via
the materialisation bridge.  Pinned here across churned overlays,
clustered id populations that force the empty-cell fallback (rows past
0, row 0, and one prefix run of thousands of ids), packets whose
source fails mid-batch, and tiny rings; plus the batched tunnel
stitching and latency-fold kernels.

:class:`OracleWindowPlane` keeps the covered rule and the tunnel stitch
the plane used to run — re-rank the whole leaf window per covered hop,
route a tunnel's legs one after the other — as the specification the
two-neighbour rule and the one-front stitch are held to.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MetricsRegistry
from repro.analysis.idspace import pack_ids, ring_distance_words
from repro.pastry import PastryNetwork, RoutingError
from repro.pastry.bulk import leaf_reach
from repro.pastry.constants import DEFAULT_LEAF_SET_SIZE
from repro.perf import packet
from repro.perf.compact import CompactOverlay
from repro.perf.packet import latency_sums, route_many, route_tunnels
from repro.util.ids import ID_SPACE
from repro.util.rng import SeedSequenceFactory

SEED = 7
CHUNKS = (1, 7, 60, None)  # 60 == the batch size of the chunking tests


def _in_chunks(route, size, *columns):
    """``route`` called on consecutive row windows of at most ``size``
    rows of ``columns`` (all of them when ``size`` is None)."""
    step = size or len(columns[0])
    return [
        route(*(column[start:start + step] for column in columns))
        for start in range(0, len(columns[0]), step)
    ]


def _uniform_overlay(n: int, seed: int, churn: bool = True) -> CompactOverlay:
    overlay = CompactOverlay.random(n, seed=seed)
    if churn:
        rng = np.random.default_rng(seed + 1000)
        alive = np.flatnonzero(overlay.alive)
        overlay.fail_positions(
            rng.choice(alive, size=max(1, n // 10), replace=False)
        )
        fresh = []
        pyrng = SeedSequenceFactory(seed).pyrandom("packet-join")
        while len(fresh) < max(1, n // 20):
            cand = pyrng.getrandbits(128)
            if cand not in overlay:
                fresh.append(cand)
        overlay.join(fresh)
    return overlay


def _clustered_overlay(seed: int) -> CompactOverlay:
    """Half the ring crammed into one deep prefix: missing routing
    cells are common, so most packets hit the empty-cell fallback."""
    rng = np.random.default_rng(seed)
    base = 0xABCDEF00 << 96
    ids = sorted(
        {base | int(x) for x in rng.integers(0, 1 << 40, size=150, dtype=np.uint64)}
        | {int(x) << 64 for x in rng.integers(0, 2**60, size=100, dtype=np.uint64)}
    )
    overlay = CompactOverlay.from_ids(ids)
    alive = np.flatnonzero(overlay.alive)
    overlay.fail_positions(rng.choice(alive, size=30, replace=False))
    return overlay


def _sample_packets(overlay: CompactOverlay, rng, count: int):
    alive = np.flatnonzero(overlay.alive)
    src = rng.choice(alive, size=count)
    key_hi = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    key_lo = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return src, key_hi, key_lo


def _assert_matches_scalar(overlay, batch, src, key_hi, key_lo):
    for i in range(len(batch.src_pos)):
        src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
        key = (int(key_hi[i]) << 64) | int(key_lo[i])
        path = overlay.route(src_id, key)
        assert tuple(batch.path(i)) == path, f"packet {i} path diverges"
        assert batch.success[i]
        assert int(batch.hops[i]) == len(path) - 1
        assert _id_at(overlay, batch.dest_pos[i]) == path[-1]


def _id_at(overlay, pos) -> int:
    return (int(overlay.hi[pos]) << 64) | int(overlay.lo[pos])


def _route_counters(metrics) -> dict[str, int]:
    prefix = "compact.route."
    return {
        name[len(prefix):]: entry["value"]
        for name, entry in metrics.snapshot().items()
        if name.startswith(prefix)
    }


class OracleWindowPlane:
    """The definitions the packet plane replaced, kept as the
    specification: a covered hop is the 4-key ``lexsort`` minimum over
    the node's whole ±reach window and is looked at again next
    iteration to learn that it arrived; a tunnel's legs route one after
    the other, each from where the last one truly ended."""

    @staticmethod
    def covered_winner(overlay, apos, key_hi, key_lo) -> int:
        ahi, alo, _ = overlay._alive_arrays()
        n = len(ahi)
        reach = leaf_reach(n, overlay.leaf_set_size)
        cand = (apos + np.arange(-reach, reach + 1)) % n
        ch, cl = ahi[cand], alo[cand]
        dh, dl = ring_distance_words(ch, cl, key_hi, key_lo)
        return int(cand[np.lexsort((cl, ch, dl, dh))[0]])

    @classmethod
    def route(cls, overlay, src_pos, key_hi, key_lo):
        """(global positions visited, success) of one packet."""
        src_pos = int(src_pos)
        if not overlay.alive[src_pos]:
            return [src_pos], False
        idx = overlay.alive_positions()
        apos = int(np.searchsorted(idx, src_pos))
        key = (int(key_hi) << 64) | int(key_lo)
        twin = overlay.twin()
        path = [src_pos]
        for _ in range(overlay.MAX_HOPS):
            hop, branch, _ = twin._node(twin.alive_ids[apos]).decision(key)
            if branch is None:  # leaf-covered
                nxt = cls.covered_winner(overlay, apos, key_hi, key_lo)
            else:
                nxt = bisect_left(twin.alive_ids, hop)
            if nxt == apos:
                return path, True
            path.append(int(idx[nxt]))
            apos = nxt
        return path, False

    @classmethod
    def tunnels(cls, overlay, src, hop_hi, hop_lo, key_hi, key_lo):
        """(leg_hops, hops, success, dest_pos), tunnel by tunnel."""
        num, length = hop_hi.shape
        leg_hops = np.zeros((num, length + 1), dtype=np.int64)
        success = np.ones(num, dtype=bool)
        dest = np.array(src, dtype=np.intp)
        for t in range(num):
            for j in range(length + 1):
                kh, kl = (
                    (hop_hi[t, j], hop_lo[t, j]) if j < length
                    else (key_hi[t], key_lo[t])
                )
                path, ok = cls.route(overlay, dest[t], kh, kl)
                leg_hops[t, j] = len(path) - 1
                success[t] &= ok
                if ok:
                    dest[t] = path[-1]
        return leg_hops, leg_hops.sum(axis=1), success, dest


def _assert_matches_scalar_and_oracle(overlay, batch, src, key_hi, key_lo):
    for i in range(len(batch.src_pos)):
        path, ok = OracleWindowPlane.route(overlay, src[i], key_hi[i], key_lo[i])
        want = [_id_at(overlay, pos) for pos in path]
        assert batch.path(i) == want, f"packet {i} leaves the oracle's path"
        assert bool(batch.success[i]) == ok
        assert int(batch.hops[i]) == len(path) - 1
        assert int(batch.dest_pos[i]) == path[-1]
        if not overlay.alive[src[i]]:
            continue  # the scalar route raises on a dead source
        key = (int(key_hi[i]) << 64) | int(key_lo[i])
        if ok:
            assert overlay.route(_id_at(overlay, src[i]), key) == tuple(want)
        else:  # a hop-limit casualty: the scalar route raises
            with pytest.raises(RoutingError, match="exceeded"):
                overlay.route(_id_at(overlay, src[i]), key)


def _assert_tunnels_match_oracle(overlay, result, src, hop_hi, hop_lo,
                                 key_hi, key_lo):
    leg_hops, hops, success, dest = OracleWindowPlane.tunnels(
        overlay, src, hop_hi, hop_lo, key_hi, key_lo
    )
    assert result.leg_hops.shape == leg_hops.shape
    assert (result.leg_hops == leg_hops).all()
    assert (result.hops == hops).all()
    assert (result.success == success).all()
    assert (result.dest_pos == dest).all()


class TestRouteManyEquivalence:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_hop_for_hop_vs_scalar_on_churned_overlay(self, seed):
        overlay = _uniform_overlay(300, seed)
        rng = np.random.default_rng(seed + 50)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 60)
        batch = route_many(overlay, src, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)

    def test_hop_for_hop_vs_object_engine_bridge(self):
        overlay = _uniform_overlay(200, SEED)
        network = PastryNetwork.build(overlay.alive_ids())
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 40)
        batch = route_many(overlay, src, key_hi, key_lo)
        for i in range(len(batch.src_pos)):
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            bridged = network.route(src_id, key)
            assert tuple(batch.path(i)) == bridged
            assert _id_at(overlay, batch.dest_pos[i]) == bridged[-1]

    def test_clustered_ids_exercise_fallback_and_agree(self):
        overlay = _clustered_overlay(SEED)
        rng = np.random.default_rng(SEED + 1)
        alive = np.flatnonzero(overlay.alive)
        src = rng.choice(alive, size=60)
        # aim half the keys into the crowded prefix so empty buckets
        # (and therefore the fallback) are guaranteed
        key_hi = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        key_hi[::2] |= np.uint64(0xABCDEF00 << 32)
        key_lo = rng.integers(0, 2**64, size=60, dtype=np.uint64)
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        batch = route_many(overlay, src, key_hi, key_lo)
        assert _route_counters(metrics)["decisions_empty_cell"] > 0, (
            "fallback branch never exercised"
        )
        _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)

    def test_one_prefix_run_of_thousands_agrees(self):
        """5,000 alive ids under one 8-digit prefix whose ninth digit is
        always 0, keys there with a ninth digit of 8 or more: every
        empty cell's run is the whole cluster, wider than any scan would
        want to walk (a run-scan once handed such runs to the scalar
        rule), and the decision still reads three ids."""
        rng = np.random.default_rng(SEED + 2)
        base = 0xABCDEF00 << 96
        low = rng.integers(0, 2**64, size=(5_200, 2), dtype=np.uint64)
        cluster = {
            base | ((int(h) >> 37) << 64) | int(l) for h, l in low.tolist()
        }
        spread = {int(x) << 64 for x in rng.integers(0, 2**64, size=300,
                                                     dtype=np.uint64)}
        overlay = CompactOverlay.from_ids(sorted(cluster | spread))
        alive = np.flatnonzero(overlay.alive)
        overlay.fail_positions(rng.choice(alive, size=100, replace=False))
        ahi, _, _ = overlay._alive_arrays()
        in_run = int(((ahi >> np.uint64(32)) == np.uint64(0xABCDEF00)).sum())
        assert in_run > 4_096
        alive = np.flatnonzero(overlay.alive)
        src = rng.choice(alive, size=24)
        key_hi = rng.integers(0, 2**64, size=24, dtype=np.uint64)
        key_hi[::2] = np.uint64(0xABCDEF00 << 32) | np.uint64(1 << 31) | (
            key_hi[::2] >> np.uint64(33)
        )
        key_lo = rng.integers(0, 2**64, size=24, dtype=np.uint64)
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        batch = route_many(overlay, src, key_hi, key_lo)
        assert _route_counters(metrics)["decisions_empty_cell"] >= 12
        _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)

    def test_dead_sources_fail_in_row_without_poisoning_batch(self):
        overlay = _uniform_overlay(250, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 20)
        overlay.fail_positions(np.unique(src[::2]))
        batch = route_many(overlay, src, key_hi, key_lo)
        dead = ~overlay.alive[src]
        assert dead.any()
        assert not batch.success[dead].any()
        assert (batch.hops[dead] == 0).all()
        assert (batch.dest_pos[dead] == src[dead]).all()
        for i in np.flatnonzero(dead):
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            assert batch.path(int(i)) == [src_id]
        live = np.flatnonzero(~dead)
        for i in live:
            i = int(i)
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            assert tuple(batch.path(i)) == overlay.route(src_id, key)

    @pytest.mark.parametrize("n", (1, 2, 3, 17))
    def test_tiny_rings(self, n):
        overlay = CompactOverlay.bootstrap(n, seed=SEED)
        alive = np.flatnonzero(overlay.alive)
        key_hi, key_lo = pack_ids([123456789 << 60] * n)
        batch = route_many(overlay, alive, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, alive, key_hi, key_lo)

    def test_empty_batch(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        batch = route_many(
            overlay,
            np.zeros(0, dtype=np.intp),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
        )
        assert len(batch.src_pos) == 0

    def test_length_mismatch_raises(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        with pytest.raises(ValueError):
            route_many(
                overlay,
                np.zeros(2, dtype=np.intp),
                np.zeros(3, dtype=np.uint64),
                np.zeros(3, dtype=np.uint64),
            )

    @given(
        pool=st.lists(st.integers(0, ID_SPACE - 1), min_size=2, max_size=40,
                      unique=True),
        keys=st.lists(st.integers(0, ID_SPACE - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_agrees_with_scalar(self, pool, keys):
        overlay = CompactOverlay.from_ids(sorted(pool))
        src_pos = np.array(
            [i % overlay.size for i in range(len(keys))], dtype=np.intp
        )
        key_hi, key_lo = pack_ids(keys)
        batch = route_many(overlay, src_pos, key_hi, key_lo)
        _assert_matches_scalar(overlay, batch, src_pos, key_hi, key_lo)


ALIVE_SIZES = (1, 2, 3, 16, 17, 18, 19, 300)  # around leaf_set_size + 1
LAYOUTS = ("uniform", "clustered", "shared_hi")


def _even_ring(alive: int, layout: str, seed: int) -> CompactOverlay:
    """``alive`` alive ids plus a few failed ones, so alive and global
    positions differ.  Every id is even: the midpoint of any two is an
    exact tie.  ``shared_hi`` puts the whole ring under two high words,
    which drives ``searchsorted_words``' advance loop."""
    rng = np.random.default_rng(seed)
    count = alive + max(1, alive // 8)
    ids: set[int] = set()
    while len(ids) < count:
        hi, lo = (int(x) for x in rng.integers(0, 2**64, size=2, dtype=np.uint64))
        if layout == "clustered" and len(ids) % 2:
            hi = (0xABCDEF00 << 32) | (hi & 0xFF)
        elif layout == "shared_hi":
            hi = 0x1234 + (hi & 1)
        ids.add(((hi << 64) | lo) & ~1)
    overlay = CompactOverlay.from_ids(ids)
    overlay.fail_positions(rng.choice(count, size=count - alive, replace=False))
    return overlay


def _edge_keys(overlay, rng) -> list[int]:
    """Keys where a two-neighbour rule could slip: alive ids, exact
    midpoints of ring neighbours (the wrap pair too), both sides of
    the wrap, a failed id, and a few uniform ones."""
    ids = overlay.alive_ids()
    n = len(ids)
    picks = [int(i) for i in rng.integers(0, n, size=3)]
    keys = [ids[i] for i in picks]
    keys += [
        (ids[i] + (ids[(i + 1) % n] - ids[i]) % ID_SPACE // 2) % ID_SPACE
        for i in (*picks, n - 1)
    ]
    keys += [0, ids[0] // 2, (ids[0] - 2) % ID_SPACE,
             ID_SPACE - 1, (ids[-1] + 2) % ID_SPACE,
             ids[-1] + (ID_SPACE - ids[-1]) // 2]
    keys.append(_id_at(overlay, np.flatnonzero(~overlay.alive)[0]))
    keys += [
        (int(hi) << 64) | int(lo)
        for hi, lo in rng.integers(0, 2**64, size=(4, 2), dtype=np.uint64)
    ]
    return keys


class TestCoveredRuleOracle:
    """One ``searchsorted`` and a two-candidate compare must elect what
    the window ``lexsort`` elected, and settling a packet on arrival
    must report what re-evaluating it reported."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("alive", ALIVE_SIZES)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_ring_neighbour_rule_equals_window_minimum(self, alive, layout,
                                                       seed):
        overlay = _even_ring(alive, layout, seed)
        rng = np.random.default_rng(seed + 1)
        key_hi, key_lo = pack_ids(_edge_keys(overlay, rng))
        # any position, dead ones included
        src = rng.integers(0, overlay.size, size=len(key_hi))
        batch = route_many(overlay, src, key_hi, key_lo)
        _assert_matches_scalar_and_oracle(overlay, batch, src, key_hi, key_lo)

    def test_max_hops_boundary_takes_the_scalar_verdict(self):
        overlay = _uniform_overlay(300, SEED)
        rng = np.random.default_rng(SEED + 60)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 40)
        needed = route_many(overlay, src, key_hi, key_lo).hops
        assert needed.max() >= 2
        for limit in range(1, int(needed.max()) + 2):
            # shadows the class constant for this overlay only
            overlay.MAX_HOPS = limit
            batch = route_many(overlay, src, key_hi, key_lo)
            # a packet needing h hops: hop-limit at h, success at h + 1
            assert (batch.success == (needed < limit)).all()
            assert (batch.hops == np.minimum(needed, limit)).all()
            _assert_matches_scalar_and_oracle(overlay, batch, src, key_hi, key_lo)


def _fallback_ring(ids) -> CompactOverlay:
    """``ids`` plus a failed id beside every fifth one, so alive ranks
    and global positions differ."""
    extra = {(ids[i] + 1) % ID_SPACE for i in range(0, len(ids), 5)} - set(ids)
    overlay = CompactOverlay.from_ids(sorted(set(ids) | extra))
    overlay.fail_positions(overlay.positions_of(sorted(extra)))
    return overlay


def _route_from(overlay, sources, keys):
    """Route every key from every source against the scalar rule;
    return the counters."""
    src = np.repeat(sources, len(keys))
    key_hi, key_lo = pack_ids(list(keys) * len(sources))
    metrics = MetricsRegistry()
    overlay.instrument(metrics)
    batch = route_many(overlay, src, key_hi, key_lo)
    _assert_matches_scalar(overlay, batch, src, key_hi, key_lo)
    return _route_counters(metrics)


class TestEmptyCellRule:
    """The fallback's three candidates — first alive id at/after the
    key, first id of the node's bucket holding the last one before it,
    nearest leaf below it — must elect what the scalar scan over every
    known id elects, wherever the key and the empty bucket sit."""

    @given(
        extra=st.integers(1, 3),
        digits=st.sets(st.integers(0, 15), min_size=1, max_size=8),
        lows=st.lists(st.integers(0, (1 << 124) - 1), min_size=40,
                      max_size=40, unique=True),
        key_lows=st.lists(st.integers(0, (1 << 124) - 1), min_size=1,
                          max_size=3),
        key_digit=st.integers(0, 15),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_zero_fallback_on_rings_just_past_the_leaf_set(
            self, extra, digits, lows, key_digit, key_lows):
        """leaf_set_size + 1..3 alive ids whose first digits avoid the
        key's: a node the key is not leaf-covered by shares no digit with
        it and finds the key's row-0 cell empty, so the fallback runs over
        the whole ring, cyclically."""
        digits = sorted(digits)
        free = [d for d in range(16) if d not in digits]
        size = DEFAULT_LEAF_SET_SIZE + extra
        ids = [(digits[i % len(digits)] << 124) | low
               for i, low in enumerate(lows[:size])]
        key_digit = free[key_digit % len(free)]
        keys = [(key_digit << 124) | low for low in key_lows]
        overlay = _fallback_ring(ids)
        counts = _route_from(overlay, np.flatnonzero(overlay.alive), keys)
        assert counts["decisions_empty_cell"] > 0

    @pytest.mark.parametrize("seed", (0, 1))
    def test_keys_on_ids_bounds_and_ring_ends(self, seed):
        overlay = _clustered_overlay(seed)
        ids = overlay.alive_ids()
        rng = np.random.default_rng(seed + 3)
        keys = [ids[int(i)] for i in rng.integers(0, len(ids), size=3)]
        # lower bounds of buckets, populated or not, under a few ids
        for i in rng.integers(0, len(ids), size=3).tolist():
            for row in (0, 1, 8, 9, 10):
                shift = 128 - 4 * (row + 1)
                col = int(rng.integers(0, 16))
                keys.append(((ids[i] >> (shift + 4) << 4) | col) << shift)
        keys += [0, ids[0] - 1, ids[0] // 2, ids[-1] + 1, ID_SPACE - 1]
        sources = rng.choice(np.flatnonzero(overlay.alive), size=8)
        counts = _route_from(overlay, sources, keys)
        assert counts["decisions_empty_cell"] > 0


class TestInputValidation:
    """Positions and shapes come from outside: fail closed, name the row."""

    def _overlay(self):
        return CompactOverlay.random(500, seed=1)

    @pytest.mark.parametrize("bad", (-1, 500))
    def test_route_many_rejects_positions_outside_the_overlay(self, bad):
        overlay = self._overlay()
        zeros = np.zeros(3, dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"src_pos\[1\] = {bad} "):
            route_many(overlay, [0, bad, -7], zeros, zeros)

    @pytest.mark.parametrize("bad", (-1, 500))
    def test_route_tunnels_rejects_positions_outside_the_overlay(self, bad):
        overlay = self._overlay()
        hops = np.zeros((2, 3), dtype=np.uint64)
        zeros = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"src_pos\[1\] = {bad} "):
            route_tunnels(overlay, [499, bad], hops, hops, zeros, zeros)

    @pytest.mark.parametrize("bad", (
        np.array([0.0, 1.5, 2.0]),  # used to truncate onto position 1
        np.array([False, True, False]),
    ))
    def test_positions_must_be_integers(self, bad):
        overlay = self._overlay()
        zeros = np.zeros(3, dtype=np.uint64)
        hops = np.zeros((3, 2), dtype=np.uint64)
        with pytest.raises(ValueError, match="src_pos.*must be integers"):
            route_many(overlay, bad, zeros, zeros)
        with pytest.raises(ValueError, match="src_pos.*must be integers"):
            route_tunnels(overlay, bad, hops, hops, zeros, zeros)

    @pytest.mark.parametrize("hi_shape, lo_shape", (
        ((4, 3), (4, 2)),  # used to die with an IndexError inside leg 2
        ((4, 3), (3, 3)),
        ((4,), (4,)),
    ))
    def test_route_tunnels_rejects_mismatched_hop_key_shapes(self, hi_shape,
                                                             lo_shape):
        overlay = self._overlay()
        zeros = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="hop key words"):
            route_tunnels(
                overlay, np.zeros(4, dtype=np.intp),
                np.zeros(hi_shape, dtype=np.uint64),
                np.zeros(lo_shape, dtype=np.uint64), zeros, zeros,
            )

    @pytest.mark.parametrize("srcs, dest_hi, dest_lo", (
        (4, 3, 4), (4, 4, 5), (3, 4, 4),
    ))
    def test_route_tunnels_rejects_rows_that_do_not_align(self, srcs, dest_hi,
                                                          dest_lo):
        overlay = self._overlay()
        hops = np.zeros((4, 3), dtype=np.uint64)
        with pytest.raises(ValueError, match="each of the 4 tunnels"):
            route_tunnels(
                overlay, np.zeros(srcs, dtype=np.intp), hops, hops,
                np.zeros(dest_hi, dtype=np.uint64),
                np.zeros(dest_lo, dtype=np.uint64),
            )


def _scalar_decisions(overlay, src_id, key) -> dict[str, int]:
    """Branch of every decision the plane takes for one packet, read
    off the class key of :meth:`PastryNode.decision` on the overlay's
    twin: ``None`` is leaf-covered, an even key a prefix cell and an odd
    one the rare case.  One per node visited, except that a covered
    decision is the packet's last (it stays, or settles on arrival)."""
    made = dict.fromkeys(("covered", "prefix_cell", "empty_cell"), 0)
    twin = overlay.twin()
    nid = src_id
    while True:
        nxt, branch, _ = twin._node(nid).decision(key)
        if branch is None:
            made["covered"] += 1
            return made
        made["empty_cell" if branch & 1 else "prefix_cell"] += 1
        if nxt == nid:
            return made
        nid = nxt


class TestDecisionCounters:
    def _batch(self):
        overlay = _clustered_overlay(SEED)
        rng = np.random.default_rng(SEED + 1)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 24)
        key_hi[::2] |= np.uint64(0xABCDEF00 << 32)
        # a dead source is a packet but makes no decision
        overlay.fail_positions(src[:1])
        return overlay, src, key_hi, key_lo

    def test_counters_sum_to_the_decisions_made(self):
        overlay, src, key_hi, key_lo = self._batch()
        want = dict.fromkeys(("covered", "prefix_cell", "empty_cell"), 0)
        for i in np.flatnonzero(overlay.alive[src]):
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            made = _scalar_decisions(overlay, _id_at(overlay, src[i]), key)
            for branch, count in made.items():
                want[branch] += count
        assert want["empty_cell"] > 0

        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        batch = route_many(overlay, src, key_hi, key_lo)
        assert _route_counters(metrics) == {
            "packets": 24,
            "decisions_covered": want["covered"],
            "decisions_prefix_cell": want["prefix_cell"],
            "decisions_empty_cell": want["empty_cell"],
        }
        # every packet that arrived took exactly one covered decision
        assert want["covered"] == int(batch.success.sum())

    def test_detached_overlay_reports_nothing(self):
        overlay, src, key_hi, key_lo = self._batch()
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        overlay.instrument(None)
        route_many(overlay, src, key_hi, key_lo)
        assert _route_counters(metrics) == {}


class TestChunkedRouting:
    """A batch split into consecutive chunks by its caller routes
    exactly as the whole batch: each packet's route is a pure function
    of (overlay, source, key), and none may depend on its batch-mates
    — which is what lets the front route any batch whole and
    ``route_tunnels`` re-route a subset of its legs."""

    def _batch(self, seed=SEED, count=60):
        overlay = _uniform_overlay(300, seed)
        rng = np.random.default_rng(seed + 50)
        src, key_hi, key_lo = _sample_packets(overlay, rng, count)
        return overlay, src, key_hi, key_lo

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_route_many_digest_identical(self, chunk_size):
        overlay, src, key_hi, key_lo = self._batch()
        flat = route_many(overlay, src, key_hi, key_lo)
        parts = _in_chunks(overlay.route_many, chunk_size, src, key_hi, key_lo)
        for name in ("dest_pos", "hops", "success"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert (joined == getattr(flat, name)).all()
        paths = [part.path(i) for part in parts for i in range(len(part.src_pos))]
        assert paths == [flat.path(i) for i in range(len(flat.src_pos))]

    @pytest.mark.parametrize("chunk_size", (1, 7, 20, None))
    def test_dead_sources_straddling_chunk_edge(self, chunk_size):
        overlay = _uniform_overlay(250, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 20)
        # kill sources 6 and 7 — with chunk_size=7 packet 6 ends one
        # chunk and packet 7 opens the next
        overlay.fail_positions(np.unique(src[6:8]))
        parts = _in_chunks(overlay.route_many, chunk_size, src, key_hi, key_lo)
        paths = [part.path(i) for part in parts for i in range(len(part.src_pos))]
        success = np.concatenate([part.success for part in parts])
        hops = np.concatenate([part.hops for part in parts])
        dest = np.concatenate([part.dest_pos for part in parts])
        dead = ~overlay.alive[src]
        assert dead[6] and dead[7]
        assert not success[dead].any()
        assert (hops[dead] == 0).all()
        assert (dest[dead] == src[dead]).all()
        for i in np.flatnonzero(~dead):
            i = int(i)
            src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            assert tuple(paths[i]) == overlay.route(src_id, key)

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_route_tunnels_failure_isolation_chunked(self, chunk_size):
        overlay = _uniform_overlay(200, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 8)
        overlay.fail_positions(np.unique(src[:2]))
        hop_hi = rng.integers(0, 2**64, size=(8, 2), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(8, 2), dtype=np.uint64)
        flat = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo)
        parts = _in_chunks(overlay.route_tunnels, chunk_size,
                           src, hop_hi, hop_lo, key_hi, key_lo)
        success = np.concatenate([part.success for part in parts])
        assert not success[:2].any()
        assert success[2:].all()
        for name in ("leg_hops", "hops", "dest_pos"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert (joined == getattr(flat, name)).all()

    @pytest.mark.parametrize("chunk_size", (1, 7, 6, None))
    def test_latency_sums_draw_order_deterministic(self, chunk_size):
        hops = np.array([0, 1, 5, 3, 0, 7])
        flat = latency_sums(np.random.default_rng(5), hops, 0.010, 0.230)
        rng = np.random.default_rng(5)
        parts = _in_chunks(
            lambda h: latency_sums(rng, h, 0.010, 0.230), chunk_size, hops
        )
        # bitwise, not approx: the draws are taken in packet order, so
        # chunks drawn one after another consume the same stream
        assert (np.concatenate(parts) == flat).all()


class TestTunnelBatch:
    def test_stitched_hops_and_destinations_match_scalar_legs(self):
        overlay = _uniform_overlay(300, SEED)
        rng = np.random.default_rng(SEED)
        tunnels, length = 25, 3
        src, key_hi, key_lo = _sample_packets(overlay, rng, tunnels)
        hop_hi = rng.integers(0, 2**64, size=(tunnels, length), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(tunnels, length), dtype=np.uint64)
        result = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo)
        assert result.leg_hops.shape == (tunnels, length + 1)
        for t in range(tunnels):
            cur = (int(overlay.hi[src[t]]) << 64) | int(overlay.lo[src[t]])
            total = 0
            for j in range(length):
                key = (int(hop_hi[t, j]) << 64) | int(hop_lo[t, j])
                path = overlay.route(cur, key)
                assert int(result.leg_hops[t, j]) == len(path) - 1
                total += len(path) - 1
                cur = path[-1]
            key = (int(key_hi[t]) << 64) | int(key_lo[t])
            path = overlay.route(cur, key)
            total += len(path) - 1
            assert bool(result.success[t])
            assert int(result.hops[t]) == total
            dest = (int(overlay.hi[result.dest_pos[t]]) << 64) | int(
                overlay.lo[result.dest_pos[t]]
            )
            assert dest == path[-1]

    def test_dead_source_tunnel_fails_without_poisoning_batch(self):
        overlay = _uniform_overlay(200, SEED, churn=False)
        rng = np.random.default_rng(SEED)
        src, key_hi, key_lo = _sample_packets(overlay, rng, 6)
        overlay.fail_positions(np.unique(src[:2]))
        hop_hi = rng.integers(0, 2**64, size=(6, 2), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(6, 2), dtype=np.uint64)
        result = route_tunnels(overlay, src, hop_hi, hop_lo, key_hi, key_lo)
        assert not result.success[:2].any()
        assert result.success[2:].all()

    def _tunnels(self, overlay, num, length, seed=SEED):
        rng = np.random.default_rng(seed)
        src, key_hi, key_lo = _sample_packets(overlay, rng, num)
        hop_hi = rng.integers(0, 2**64, size=(num, length), dtype=np.uint64)
        hop_lo = rng.integers(0, 2**64, size=(num, length), dtype=np.uint64)
        return src, hop_hi, hop_lo, key_hi, key_lo

    def test_clean_batch_is_one_front_and_equals_the_sequential_stitch(self):
        overlay = _uniform_overlay(300, SEED)
        args = self._tunnels(overlay, 25, 3)
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        result = route_tunnels(overlay, *args)
        counts = _route_counters(metrics)
        # every junction was where its hop key said it would be
        assert counts["legs_rerouted"] == 0
        assert counts["packets"] == 25 * 4
        assert result.success.all()
        _assert_tunnels_match_oracle(overlay, result, *args)

    def test_clean_batch_resolves_every_key_once_and_ranks_only_the_sources(
            self, monkeypatch):
        """One ``closest_index_words`` call over all T x (L+1) keys gives
        each leg's root *and* the next leg's junction rank; only the T
        real sources go through the position -> alive-rank search."""
        overlay = _uniform_overlay(300, SEED)
        args = self._tunnels(overlay, 25, 3)
        needles = {"closest_index_words": [], "_alive_ranks": []}

        def counted(name, arg):
            real = getattr(packet, name)

            def wrapper(*call):
                needles[name].append(len(call[arg]))
                return real(*call)

            monkeypatch.setattr(packet, name, wrapper)

        counted("closest_index_words", 2)
        counted("_alive_ranks", 1)
        result = route_tunnels(overlay, *args)
        assert needles == {"closest_index_words": [25 * 4], "_alive_ranks": [25]}
        _assert_tunnels_match_oracle(overlay, result, *args)

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_dead_sources_equal_the_sequential_stitch_on_every_row(
            self, chunk_size, route_in_windows):
        overlay = _uniform_overlay(300, SEED)
        args = self._tunnels(overlay, 12, 3)
        overlay.fail_positions(np.unique(args[0][:3]))
        dead = ~overlay.alive[args[0]]
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        route_in_windows(chunk_size)
        result = overlay.route_tunnels(*args)
        assert not result.success[dead].any() and result.success[~dead].all()
        assert (result.dest_pos[dead] == args[0][dead]).all()
        assert (result.hops[dead] == 0).all()
        # each leg behind a dead source was started from a guess
        assert _route_counters(metrics)["legs_rerouted"] == 3 * int(dead.sum())
        _assert_tunnels_match_oracle(overlay, result, *args)

    @pytest.mark.parametrize("chunk_size", CHUNKS)
    def test_hop_limit_in_a_middle_leg_equals_the_sequential_stitch(
            self, chunk_size, route_in_windows):
        overlay = _uniform_overlay(300, SEED)
        overlay.MAX_HOPS = 3  # this overlay only: legs needing 3+ hops fail
        args = self._tunnels(overlay, 30, 3)
        metrics = MetricsRegistry()
        overlay.instrument(metrics)
        route_in_windows(chunk_size)
        result = overlay.route_tunnels(*args)
        casualty = result.leg_hops == overlay.MAX_HOPS
        assert (casualty[:, 1:-1].any(axis=1) & ~casualty[:, 0]).any(), (
            "no tunnel lost a middle leg after a good first one"
        )
        assert result.success.any() and not result.success.all()
        assert _route_counters(metrics)["legs_rerouted"] > 0
        _assert_tunnels_match_oracle(overlay, result, *args)

    @pytest.mark.parametrize("num, length", ((6, 0), (0, 3), (0, 0)))
    def test_zero_length_tunnels_and_empty_batches(self, num, length):
        overlay = _uniform_overlay(300, SEED)
        args = self._tunnels(overlay, num, length)
        result = route_tunnels(overlay, *args)
        assert len(result.hops) == num
        assert result.leg_hops.shape == (num, length + 1)
        _assert_tunnels_match_oracle(overlay, result, *args)
        if num and not length:
            # the exit leg alone is a plain route
            direct = route_many(overlay, args[0], args[3], args[4])
            assert (result.dest_pos == direct.dest_pos).all()
            assert (result.hops == direct.hops).all()

    def test_ring_with_nobody_alive_fails_every_tunnel_in_place(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        args = self._tunnels(overlay, 4, 2)
        overlay.fail_positions(np.arange(5))
        result = route_tunnels(overlay, *args)
        assert not result.success.any()
        assert (result.hops == 0).all()
        assert (result.dest_pos == args[0]).all()


class TestLatencySums:
    def test_matches_per_hop_loop(self):
        hops = np.array([0, 1, 5, 3, 0, 7])
        lat = latency_sums(np.random.default_rng(5), hops, 0.010, 0.230)
        draws = np.random.default_rng(5).uniform(0.010, 0.230, size=int(hops.sum()))
        offset = 0
        for i, h in enumerate(hops):
            expected = draws[offset:offset + h].sum()
            offset += h
            assert lat[i] == pytest.approx(expected)
        assert lat[0] == 0.0 and lat[4] == 0.0

    def test_bounds_scale_with_hops(self):
        hops = np.full(500, 6)
        lat = latency_sums(np.random.default_rng(1), hops, 0.010, 0.230)
        assert (lat >= 6 * 0.010).all() and (lat <= 6 * 0.230).all()
        assert lat.mean() == pytest.approx(6 * 0.120, rel=0.05)

    def test_all_zero_hops_draw_nothing(self):
        lat = latency_sums(np.random.default_rng(2), np.zeros(4, dtype=int), 0.0, 1.0)
        assert (lat == 0.0).all()

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            latency_sums(np.random.default_rng(3), np.array([1, -2]), 0.0, 1.0)

    @pytest.mark.parametrize("hops, low, high, match", (
        ([1, 2], -1.0, -0.5, "latency bounds"),  # negative latencies
        ([1, 2], -0.1, 0.5, "latency bounds"),
        ([1, 2], 0.3, 0.2, "latency bounds"),  # min > max
        ([1, 2], float("nan"), 0.2, "latency bounds"),
        ([1, 2], 0.0, float("inf"), "latency bounds"),
        ([1.7, 2.2], 0.0, 1.0, "must be integers"),  # used to truncate
        ([1.0, float("nan")], 0.0, 1.0, "must be integers"),
        ([1.0, float("inf")], 0.0, 1.0, "must be integers"),
        (["1", "2"], 0.0, 1.0, "must be integers"),
        ([1, -2], 0.0, 1.0, "negative hop counts"),
    ))
    def test_fails_closed_before_any_draw(self, hops, low, high, match):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match=match):
            latency_sums(rng, hops, low, high)
        # the caller's stream was not advanced
        assert rng.random() == np.random.default_rng(4).random()

    def test_integral_floats_and_equal_bounds_are_accepted(self):
        lat = latency_sums(np.random.default_rng(6), [2.0, 0.0], 0.05, 0.05)
        assert lat.tolist() == pytest.approx([0.1, 0.0])

    def test_same_stream_is_deterministic(self):
        hops = np.array([2, 4, 8])
        a = latency_sums(np.random.default_rng(9), hops, 0.010, 0.230)
        b = latency_sums(np.random.default_rng(9), hops, 0.010, 0.230)
        assert (a == b).all()
