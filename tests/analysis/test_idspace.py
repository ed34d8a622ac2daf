"""Tests for the 128-bit id-ring kernels and the figures' ring — including
the critical cross-validation against the object-level substrates."""

import bisect
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.idspace as idspace
from repro.analysis.idspace import (
    closest_index_words,
    draw_unique_ids,
    merge_insert_positions,
    pack_ids,
    replica_table_words,
    clz64,
    ring_distance_words,
    searchsorted_words,
    shared_prefix_bits_words,
    unpack_words,
)
from repro.experiments.fig5_churn import churn_unit
from repro.experiments.ring import figure_ring
from repro.perf.compact import CompactOverlay
from repro.util.ids import closest_ids, ring_distance, shared_prefix_digits

RING = 1 << 64
RING128 = 1 << 128

ids64 = st.integers(min_value=0, max_value=RING - 1)
ids128 = st.integers(min_value=0, max_value=RING128 - 1)


def _ring(sorted_ids) -> CompactOverlay:
    """A figure ring over ascending 64-bit ``sorted_ids``, all alive."""
    sorted_ids = np.asarray(sorted_ids, dtype=np.uint64)
    return CompactOverlay(sorted_ids, np.zeros_like(sorted_ids),
                          np.ones(len(sorted_ids), dtype=bool))


def _replica_table(sorted_ids, keys, k: int) -> np.ndarray:
    """The figure ring's replica table for ascending 64-bit
    ``sorted_ids``: indices into them, closest first."""
    keys = np.asarray(keys, dtype=np.uint64)
    return _ring(sorted_ids).replica_positions(keys, np.zeros_like(keys), k)


class TestReplicaTable:
    """``replica_positions`` on a figure ring: 64-bit ids and keys as
    high words over a zero low word."""

    @given(
        pool=st.sets(ids64, min_size=1, max_size=30),
        keys=st.lists(ids64, min_size=1, max_size=10),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, pool, keys, k):
        """The NumPy path must agree with the scalar reference —
        ids scaled onto the 128-bit ring (order/distance isomorphism)."""
        k = min(k, len(pool))
        sorted_ids = np.array(sorted(pool), dtype=np.uint64)
        table = _replica_table(sorted_ids, keys, k)
        for row, key in zip(table, keys):
            got = [int(sorted_ids[i]) << 64 for i in row]
            want = closest_ids([p << 64 for p in pool], key << 64, k)
            assert got == want

    def test_closest_first_order(self):
        ids = np.array([10, 20, 30, 40], dtype=np.uint64)
        table = _replica_table(ids, [21], 3)
        assert list(ids[table[0]]) == [20, 30, 10]

    def test_wraparound(self):
        ids = np.array([5, RING - 5], dtype=np.uint64)
        table = _replica_table(ids, [RING - 1], 1)
        assert ids[table[0, 0]] == RING - 5

    def test_k_validation(self):
        # the kernel raises; the overlay clamps k to the alive population
        ids = np.array([1, 2], dtype=np.uint64)
        zeros = np.zeros_like(ids)
        keys = np.array([0], dtype=np.uint64)
        for k in (0, 3):
            with pytest.raises(ValueError):
                replica_table_words(ids, zeros, keys, np.zeros_like(keys), k)

    def test_alive_indices_are_replica_positions(self, monkeypatch):
        # the kernel indexes the alive ids; the overlay hands back the
        # kernel's own table, mapped to global positions in place
        # where some position is dead
        import repro.perf.compact as compact

        made = []

        def kernel(*args):
            made.append(replica_table_words(*args))
            return made[-1]

        monkeypatch.setattr(compact, "replica_table_words", kernel)
        rng = np.random.default_rng(6)
        overlay, _, _ = figure_ring(300, rng)
        keys = draw_unique_ids(100, rng)
        zeros = np.zeros_like(keys)
        whole = overlay.replica_positions(keys, zeros, 4)
        assert whole is made[-1]
        overlay.fail_positions(rng.choice(300, size=40, replace=False))
        overlay.join(int(x) << 64 for x in draw_unique_ids(20, rng))
        alive = overlay.alive
        want = replica_table_words(overlay.hi[alive], overlay.lo[alive],
                                   keys, zeros, 4)
        got = overlay.replica_positions(keys, zeros, 4)
        assert got is made[-1]
        assert np.array_equal(got, overlay.alive_positions()[want])

    def test_small_population_path(self):
        # 2k >= n triggers the full-ranking branch
        ids = np.array([10, 20, 30], dtype=np.uint64)
        table = _replica_table(ids, [12], 2)
        assert list(ids[table[0]]) == [10, 20]

    def test_large_batch_consistency(self):
        rng = np.random.default_rng(0)
        ids = np.sort(draw_unique_ids(500, rng))
        keys = draw_unique_ids(200, rng)
        table = _replica_table(ids, keys, 4)
        # spot-check 10 keys against the scalar reference
        for i in range(0, 200, 20):
            got = [int(x) for x in ids[table[i]]]
            want = [
                w >> 64
                for w in closest_ids([int(x) << 64 for x in ids], int(keys[i]) << 64, 4)
            ]
            assert got == want


class TestCrossValidationAgainstObjectModel:
    def test_same_replica_sets_as_replicated_store(self):
        """THE bridge test: the figure ring and the object-level
        ReplicatedStore must compute identical replica sets when fed
        isomorphic ids (64-bit ids shifted onto the 128-bit ring)."""
        from repro.past.replication import ReplicatedStore
        from repro.pastry.network import PastryNetwork

        rng = np.random.default_rng(7)
        ids64 = draw_unique_ids(60, rng)
        keys64 = draw_unique_ids(25, rng)

        ring = np.sort(ids64)
        net = PastryNetwork.build([int(i) << 64 for i in ids64])
        store = ReplicatedStore(net, replication_factor=3)

        table = ring[_replica_table(ring, keys64, 3)]
        for key64, row in zip(keys64, table):
            object_level = store.replica_set(int(key64) << 64)
            assert [int(x) << 64 for x in row] == object_level

    def test_any_survivor_matches_object_semantics(self):
        from repro.pastry.network import PastryNetwork

        rng = np.random.default_rng(8)
        # sort so the failure mask aligns with the ring's positions
        ids64 = np.sort(draw_unique_ids(50, rng))
        keys64 = draw_unique_ids(20, rng)
        table = _replica_table(ids64, keys64, 3)

        failed = np.zeros(50, dtype=bool)
        failed[rng.choice(50, size=20, replace=False)] = True

        # Figure 2's survivor test: a member of the original set is up
        survived = (~failed[table]).any(axis=1)

        # Object semantics: closest alive node after failure must be a
        # member of the original replica set iff any member survived.
        net = PastryNetwork.build([int(i) << 64 for i in ids64])
        original_sets = {
            int(key): [int(x) for x in row]
            for key, row in zip(keys64, ids64[table])
        }
        for idx, flag in enumerate(failed):
            if flag:
                net.fail(int(ids64[idx]) << 64)
        for key64, ok in zip(keys64, survived):
            members_alive = [
                m for m in original_sets[int(key64)]
                if net.is_alive(m << 64)
            ]
            assert bool(ok) == bool(members_alive)
            if members_alive:
                assert net.closest_alive(int(key64) << 64) >> 64 in [
                    m for m in members_alive
                ]


class TestModelAttributes:
    """``figure_ring``: the ring and flags every figure sweep starts from."""

    def test_random_malicious_count(self):
        rng = np.random.default_rng(1)
        overlay, malicious, _ = figure_ring(1000, rng, malicious_fraction=0.1)
        assert malicious.sum() == 100
        assert overlay.size == overlay.num_alive == 1000

    def test_ids_sorted_and_unique(self):
        rng = np.random.default_rng(2)
        overlay, _, _ = figure_ring(500, rng)
        assert np.all(np.diff(overlay.hi) > 0)
        assert not overlay.lo.any()

    def test_flags_follow_sort(self):
        # the same draws by hand: ids, then flags in draw order
        rng = np.random.default_rng(4)
        ids = draw_unique_ids(300, rng)
        flags = np.zeros(300, dtype=bool)
        flags[rng.choice(300, size=30, replace=False)] = True

        overlay, malicious, order = figure_ring(
            300, np.random.default_rng(4), 0.1
        )
        assert np.array_equal(order, np.argsort(ids))
        assert np.array_equal(overlay.hi, ids[order])
        assert np.array_equal(malicious, flags[order])

    def test_any_malicious_holder(self):
        malicious = np.array([False, True, False, False])
        table = _replica_table([10, 20, 30, 1000], [11, 999], 2)
        # {10,20} vs {1000,30}
        assert list(malicious[table].any(axis=1)) == [True, False]


class TestChurnPrimitives:
    """Figure 5's churn on the overlay: ``fail_positions``, ``join`` and
    :func:`churn_unit`, which keeps the malicious flags aligned."""

    def test_remove_nodes(self):
        overlay = _ring([10, 20, 30])
        overlay.fail_positions([1])
        assert list(overlay.hi[overlay.alive]) == [10, 30]
        assert overlay.size == 3  # the departed node stays a tombstone

    def test_add_nodes_keeps_sorted(self):
        overlay = _ring([10, 30])
        malicious = np.array([False, True])
        malicious = churn_unit(overlay, malicious, 1, _ScriptedChurnRng([20]))
        assert list(overlay.hi[overlay.alive]) == [20, 30]
        assert list(overlay.hi) == [10, 20, 30]
        assert list(malicious) == [False, False, True]

    def test_add_duplicate_rejected(self):
        overlay = _ring([10])
        with pytest.raises(ValueError):
            overlay.join([10 << 64])
        assert list(overlay.hi) == [10]  # refused before any change

    def test_benign_indices(self):
        # churn_unit's departures are drawn from the alive benign
        # positions, in ring order
        overlay = _ring([10, 20, 30])
        malicious = np.array([True, False, False])
        overlay.fail_positions([2])
        assert list(np.flatnonzero(overlay.alive & ~malicious)) == [1]

    @pytest.mark.parametrize("seed, digest", [
        (3, "96f6fe1109358d21864476bb91719f69b27ffed2c7f7a6386da0e1fa0a432a92"),
        (2004, "1d33bd95358c76573d2fa4c705af6d039bfbdd492c0bbf5186dc77f4cb542522"),
    ])
    def test_random_model_is_pinned(self, seed, digest):
        # sha256 over ids, flags and the draw->ring permutation of a
        # figure-scale population with 10 % malicious
        overlay, malicious, order = figure_ring(
            10_000, np.random.default_rng(seed), 0.1
        )
        h = hashlib.sha256()
        h.update(overlay.hi.astype("<u8").tobytes())
        h.update(malicious.tobytes())
        h.update(order.astype("<i8").tobytes())
        assert h.hexdigest() == digest

    def test_churn_preserves_population(self):
        rng = np.random.default_rng(3)
        overlay, malicious, _ = figure_ring(200, rng, malicious_fraction=0.1)
        for _ in range(5):
            malicious = churn_unit(overlay, malicious, 10, rng)
            assert overlay.num_alive == 200
            assert malicious.sum() == 20  # malicious never leave

    def test_flags_follow_churn(self):
        rng = np.random.default_rng(53)
        overlay, malicious, _ = figure_ring(200, rng, malicious_fraction=0.1)
        original = set(overlay.hi[malicious].tolist())
        assert len(original) == 20
        for _ in range(5):
            malicious = churn_unit(overlay, malicious, 10, rng)
            assert overlay.num_alive == 200
            assert malicious.shape == overlay.alive.shape
            assert sorted(overlay.hi[malicious].tolist()) == sorted(original)
            assert not (malicious & ~overlay.alive).any()
        assert overlay.size == 250  # five units of ten tombstones


class _ScriptedChurnRng:
    """Fake generator for one :func:`churn_unit`: departs the first
    benign position and joins the scripted ids."""

    def __init__(self, joins):
        self._joins = np.asarray(joins, dtype=np.uint64)

    def choice(self, a, size, replace):
        return np.asarray(a)[:size]

    def integers(self, low, high, size, dtype):
        assert size == len(self._joins)
        return self._joins.copy()


class _ScriptedRng:
    """Fake generator: hands out pre-scripted `integers` results."""

    def __init__(self, draws):
        self._draws = [np.asarray(d, dtype=np.uint64) for d in draws]

    def integers(self, low, high, size, dtype):
        out = self._draws.pop(0)
        assert len(out) == size, f"expected draw of {size}, scripted {len(out)}"
        return out


class TestDrawUniqueRetry:
    """Regression: the collision-retry path must redraw only the
    duplicates, preserving draw order — not return a sorted
    smallest-first prefix of the union."""

    def test_redraws_only_duplicates_in_place(self):
        rng = _ScriptedRng([
            [5, 5, 3, 7, 5],  # initial draw: dups at positions 1 and 4
            [5, 9],           # redraw for positions (1, 4): one still dup
            [11],             # final redraw for position 1
        ])
        out = draw_unique_ids(5, rng)
        assert list(out) == [5, 11, 3, 7, 9]
        assert len(np.unique(out)) == 5

    def test_draw_order_preserved_without_collisions(self):
        rng = _ScriptedRng([[40, 10, 30, 20]])
        assert list(draw_unique_ids(4, rng)) == [40, 10, 30, 20]

    def test_zero_count(self):
        rng = _ScriptedRng([[]])
        assert len(draw_unique_ids(0, rng)) == 0

    def test_real_generator_unique(self):
        rng = np.random.default_rng(11)
        out = draw_unique_ids(1000, rng)
        assert len(np.unique(out)) == 1000


# small value ranges, so that ties and full duplicates are common: over
# uniform 64-bit draws nothing would ever reach the tie fallbacks
small_words = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40
)


class TestFastSortFallback:
    """The fast-sort helpers equal the stable sorts they replace."""

    @given(small_words)
    @settings(max_examples=200, deadline=None)
    def test_argsort_words_on_a_zero_low_word_is_the_stable_argsort(self,
                                                                    pairs):
        # how figure_ring sorts its 64-bit ids
        values = np.array([h for h, _ in pairs], dtype=np.uint64)
        order, ranked, _, tie = idspace.argsort_words(values,
                                                      np.zeros_like(values))
        stable = np.argsort(values, kind="stable")
        assert np.array_equal(order, stable)
        assert np.array_equal(ranked, values[stable])
        assert list(tie) == [
            i > 0 and ranked[i] == ranked[i - 1] for i in range(len(values))
        ]

    @given(small_words)
    @settings(max_examples=200, deadline=None)
    def test_duplicate_positions_marks_all_but_first_occurrence(self, pairs):
        values = np.array([h for h, _ in pairs], dtype=np.uint64)
        seen: set[int] = set()
        want = []
        for v in values.tolist():
            want.append(v in seen)
            seen.add(v)
        assert list(idspace._duplicate_positions(values)[0]) == want

    @given(small_words)
    @settings(max_examples=200, deadline=None)
    def test_argsort_words_is_the_lexsort(self, pairs):
        hi = np.array([h for h, _ in pairs], dtype=np.uint64)
        lo = np.array([l for _, l in pairs], dtype=np.uint64)
        order, shi, slo, tie = idspace.argsort_words(hi, lo)
        lex = np.lexsort((lo, hi))
        assert np.array_equal(order, lex)
        assert np.array_equal(shi, hi[lex]) and np.array_equal(slo, lo[lex])
        ranked = list(zip(shi.tolist(), slo.tolist()))
        assert list(tie) == [
            i > 0 and ranked[i] == ranked[i - 1] for i in range(len(ranked))
        ]


class TestWindowedVsFullBranch:
    """Property test: the model's merge branch (2k < n) must agree with
    a full ranking at every wrap boundary — keys below the smallest id
    (pos == 0), above the largest (pos == n) and populations straddling
    2k ≈ n."""

    @staticmethod
    def _full_rank_reference(sorted_ids, keys, k):
        # Force the full-ranking branch by ranking every node per key.
        n = len(sorted_ids)
        out = np.empty((len(keys), k), dtype=np.intp)
        for i, key in enumerate(keys):
            ranked = sorted(
                range(n),
                key=lambda j: (
                    min((int(sorted_ids[j]) - int(key)) % RING,
                        (int(key) - int(sorted_ids[j])) % RING),
                    int(sorted_ids[j]),
                ),
            )
            out[i] = ranked[:k]
        return out

    @given(
        pool=st.sets(ids64, min_size=3, max_size=40),
        k=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_windowed_matches_full_ranking(self, pool, k, data):
        sorted_ids = np.array(sorted(pool), dtype=np.uint64)
        n = len(sorted_ids)
        if 2 * k >= n:
            k = max(1, (n - 1) // 2)  # force the merge branch
        lo, hi = int(sorted_ids[0]), int(sorted_ids[-1])
        boundary_keys = [
            0, RING - 1,                      # extremes: pos == 0 / n
            max(0, lo - 1), lo,               # around the smallest id
            hi, min(RING - 1, hi + 1),        # around the largest id
        ]
        boundary_keys.append(data.draw(ids64))
        keys = np.array(boundary_keys, dtype=np.uint64)
        got = _replica_table(sorted_ids, keys, k)
        want = self._full_rank_reference(sorted_ids, keys, k)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3), (9, 4), (17, 8)])
    def test_2k_near_n_boundary(self, n, k):
        # 2k at or just below n - 1: at 2k == n - 1 the smallest
        # population still on the merge branch, which one node fewer
        # flips to full ranking.  Both must agree.
        rng = np.random.default_rng(n * 31 + k)
        sorted_ids = np.sort(draw_unique_ids(n, rng))
        keys = draw_unique_ids(30, rng)
        got = _replica_table(sorted_ids, keys, k)
        want = self._full_rank_reference(sorted_ids, keys, k)
        assert np.array_equal(got, want)


class TestWordKernels:
    """The exact 128-bit two-word kernels against Python-int references."""

    @given(values=st.lists(ids128, min_size=0, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_roundtrip(self, values):
        hi, lo = pack_ids(values)
        assert unpack_words(hi, lo) == [int(v) for v in values]

    @given(
        pool=st.sets(ids128, min_size=1, max_size=30),
        keys=st.lists(ids128, min_size=1, max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_searchsorted_words(self, pool, keys):
        ids = sorted(pool)
        hi, lo = pack_ids(ids)
        khi, klo = pack_ids(keys)
        got = searchsorted_words(hi, lo, khi, klo)
        import bisect
        want = [bisect.bisect_left(ids, key) for key in keys]
        assert list(got) == want

    @given(a=ids128, b=ids128)
    @settings(max_examples=200, deadline=None)
    def test_ring_distance_words(self, a, b):
        ahi, alo = pack_ids([a])
        bhi, blo = pack_ids([b])
        dhi, dlo = ring_distance_words(ahi, alo, bhi, blo)
        assert unpack_words(dhi, dlo)[0] == ring_distance(a, b)

    @given(
        pool=st.sets(ids128, min_size=1, max_size=30),
        keys=st.lists(ids128, min_size=1, max_size=8),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_replica_table_words_matches_closest_ids(self, pool, keys, k):
        k = min(k, len(pool))
        ids = sorted(pool)
        shi, slo = pack_ids(ids)
        khi, klo = pack_ids(keys)
        table = replica_table_words(shi, slo, khi, klo, k)
        for row, key in zip(table, keys):
            got = [ids[i] for i in row]
            assert got == closest_ids(ids, key, k)

    def test_replica_table_words_validation(self):
        hi, lo = pack_ids([1, 2])
        khi, klo = pack_ids([0])
        with pytest.raises(ValueError):
            replica_table_words(hi, lo, khi, klo, 0)
        with pytest.raises(ValueError):
            replica_table_words(hi, lo, khi, klo, 3)

    @given(
        pool=st.sets(ids128, min_size=1, max_size=30),
        keys=st.lists(ids128, min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_closest_index_words_is_replica_column_zero(self, pool, keys):
        ids = sorted(pool)
        shi, slo = pack_ids(ids)
        # the ids themselves, exact midpoints (ties go to the smaller
        # id, across the wrap too) and both ends of the id space
        keys = keys + ids[:4] + [0, RING128 - 1] + [
            (a + (b - a) % RING128 // 2) % RING128
            for a, b in zip(ids, ids[1:] + ids[:1])
        ][-4:]
        khi, klo = pack_ids(keys)
        got, after = closest_index_words(shi, slo, khi, klo)
        assert [ids[i] for i in got] == [
            closest_ids(ids, key, 1)[0] for key in keys
        ]
        assert (got == replica_table_words(shi, slo, khi, klo, 1)[:, 0]).all()
        # the insertion rank comes from the same search, wrapped to 0
        import bisect
        assert after.tolist() == [
            bisect.bisect_left(ids, key) % len(ids) for key in keys
        ]

    def test_closest_index_words_shared_high_word_and_edges(self):
        # one high word for the whole ring: searchsorted_words resolves
        # every key in its low-word search
        ids = [(7 << 64) | low for low in (2, 6, 10, 50)]
        shi, slo = pack_ids(ids)
        keys = [(7 << 64) | 4, (7 << 64) | 8, (7 << 64) | 7, 0, RING128 - 1,
                (7 << 64) | 50]
        khi, klo = pack_ids(keys)
        got, after = closest_index_words(shi, slo, khi, klo)
        # 4 and 8 are exact ties: the smaller id wins
        assert list(got) == [0, 1, 1, 0, 0, 3]
        assert list(after) == [1, 2, 2, 0, 0, 3]
        # a single id is closest to everything; no ids, no answer
        one_hi, one_lo = pack_ids([123])
        got, after = closest_index_words(one_hi, one_lo, khi, klo)
        assert list(got) == list(after) == [0] * 6
        none_hi, none_lo = pack_ids([])
        with pytest.raises(ValueError):
            closest_index_words(none_hi, none_lo, khi, klo)

    @given(
        existing=st.sets(st.integers(0, 999), min_size=0, max_size=40),
        fresh=st.sets(st.integers(1000, 1999), min_size=0, max_size=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_insert_positions_matches_np_insert(self, existing, fresh):
        arr = np.array(sorted(existing), dtype=np.int64)
        new = np.array(sorted(fresh), dtype=np.int64)
        at = np.searchsorted(arr, new)
        target, keep = merge_insert_positions(at, len(arr))
        merged = np.empty(len(arr) + len(new), dtype=np.int64)
        merged[keep] = arr
        merged[target] = new
        assert (merged == np.insert(arr, at, new)).all()
        # one plan serves aligned companion arrays
        companion = np.empty(len(arr) + len(new), dtype=bool)
        companion[keep] = True
        companion[target] = False
        assert companion.sum() == len(arr)


#: 64-bit words the prefix kernels must count exactly: empty, only the
#: top or bottom bit, all ones, and a word on either side of 2^53
_EDGE_WORDS = (0, 1, 1 << 63, (1 << 64) - 1, (1 << 63) | 1, (1 << 53) + 1,
               (1 << 53) - 1)
words64 = st.one_of(st.sampled_from(_EDGE_WORDS), ids64)


class TestPrefixKernels:
    """``clz64`` and ``shared_prefix_bits_words`` pick every routing row
    of the packet plane; each is held to its Python-int definition."""

    @given(values=st.lists(words64, min_size=0, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_clz64_is_64_minus_bit_length(self, values):
        got = clz64(np.array(values, dtype=np.uint64))
        assert got.dtype == np.int64
        assert got.tolist() == [64 - v.bit_length() for v in values]

    @given(
        pairs=st.lists(
            st.tuples(words64, words64, words64, words64).map(
                # the high words tie whenever the first is a multiple of
                # 8 (most edge words are); every eighth pair is one id twice
                lambda w: w if w[0] % 8 else (w[0], w[1], w[0], w[3])
            ),
            min_size=1, max_size=20,
        ),
        b_bits=st.sampled_from((1, 2, 4, 8)),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_prefix_bits_words_matches_the_scalar_digits(self, pairs,
                                                                b_bits):
        a = [(ah << 64) | al for ah, al, _, _ in pairs]
        b = [(bh << 64) | bl for _, _, bh, bl in pairs]
        b[::8] = a[::8]
        ahi, alo = pack_ids(a)
        bhi, blo = pack_ids(b)
        bits = shared_prefix_bits_words(ahi, alo, bhi, blo)
        assert bits.tolist() == [128 - (x ^ y).bit_length() for x, y in zip(a, b)]
        assert (bits // b_bits).tolist() == [
            shared_prefix_digits(x, y, b_bits) for x, y in zip(a, b)
        ]

    def test_shared_prefix_bits_words_edges_and_broadcasting(self):
        top, bottom = 1 << 63, 1
        cases = [
            ((5 << 64) | 9, (5 << 64) | 9, 128),  # identical ids
            ((5 << 64) | bottom, 5 << 64, 127),  # high words tie
            ((5 << 64) | top, 5 << 64, 64),
            (top << 64, 0, 0),
            (bottom << 64, 0, 63),
            (0, (1 << 128) - 1, 0),
        ]
        ahi, alo = pack_ids([a for a, _, _ in cases])
        bhi, blo = pack_ids([b for _, b, _ in cases])
        want = [bits for _, _, bits in cases]
        assert shared_prefix_bits_words(ahi, alo, bhi, blo).tolist() == want
        # a (3, n) candidate block against one key per column
        block = shared_prefix_bits_words(
            np.stack([ahi] * 3), np.stack([alo] * 3), bhi, blo
        )
        assert block.shape == (3, len(cases))
        assert (block == want).all()
        # scalars in, a 0-d count out
        one = shared_prefix_bits_words(np.uint64(5), np.uint64(9),
                                       np.uint64(5), np.uint64(8))
        assert int(one) == 127


def _bisect_words(ids, keys) -> list[int]:
    """What ``searchsorted_words`` means: ``bisect_left`` on the 128-bit
    Python ints, one key at a time."""
    return [bisect.bisect_left(ids, key) for key in keys]


def _search(ids, keys) -> list[int]:
    hi, lo = pack_ids(ids)
    khi, klo = pack_ids(keys)
    return searchsorted_words(hi, lo, khi, klo).tolist()


def _uniform_ring(seed: int, size: int = 200) -> list[int]:
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=(size, 2), dtype=np.uint64)
    return sorted({(int(h) << 64) | int(l) for h, l in words.tolist()})


def _one_high_word_ring(seed: int, size: int = 40) -> list[int]:
    """Every id under one high word: the high-word search answers 0 or
    ``size`` for every key and the low-word search does the rest."""
    rng = np.random.default_rng(seed)
    lows = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    return sorted({(9 << 64) | int(low) for low in lows.tolist()})


#: needle arrangements the ordered search must not care about; each
#: takes (ring ids, rng) and returns the keys to ask for, in order
_NEEDLES = {
    "random": lambda ids, rng: [
        int.from_bytes(rng.bytes(16), "big") for _ in range(64)
    ],
    "ascending": lambda ids, rng: sorted(
        int.from_bytes(rng.bytes(16), "big") for _ in range(64)
    ),
    "descending": lambda ids, rng: sorted(
        (int.from_bytes(rng.bytes(16), "big") for _ in range(64)), reverse=True
    ),
    "all-equal": lambda ids, rng: [ids[len(ids) // 2] + 1] * 17,
    "duplicates": lambda ids, rng: [
        ids[i] + d for i in rng.integers(0, len(ids), size=8).tolist()
        for d in (1, 0, 1)
    ],
    "on-haystack-entries": lambda ids, rng: [
        ids[i] for i in rng.permutation(len(ids))[:32].tolist()
    ],
    # same high word as a ring member, low word either side of it
    "low-word-neighbours": lambda ids, rng: [
        (ids[i] & ~((1 << 64) - 1)) | low
        for i in rng.permutation(len(ids))[:16].tolist()
        for low in (0, (ids[i] & ((1 << 64) - 1)) ^ 1, (1 << 64) - 1)
    ],
    "below-the-minimum": lambda ids, rng: [ids[0] - 1, 0, ids[0] // 2, 0],
    "above-the-maximum": lambda ids, rng: [
        RING128 - 1, ids[-1] + 1, RING128 - 1, (ids[-1] + RING128) // 2
    ],
    "mixed-ends": lambda ids, rng: [RING128 - 1, ids[3], 0, ids[-1], ids[0]],
    "zero-needles": lambda ids, rng: [],
    "one-needle": lambda ids, rng: [ids[5] + 1],
    "two-needles-descending": lambda ids, rng: [ids[7], ids[2] - 1],
}


class TestOrderedSearch:
    """``searchsorted_words`` asks the ring in ascending needle order
    and scatters the answers back.  The specification is the definition
    — ``bisect_left`` on the 128-bit ints — not an earlier version of
    the kernel, and the one property the reordering could break: the
    answer for a key may not depend on where in the batch it stands."""

    @pytest.mark.parametrize("ring", (_uniform_ring, _one_high_word_ring),
                             ids=("uniform", "one-high-word"))
    @pytest.mark.parametrize("arrangement", sorted(_NEEDLES))
    @pytest.mark.parametrize("seed", (2004, 31337))
    def test_equals_bisect_left_whatever_the_needle_order(self, ring,
                                                          arrangement, seed):
        ids = ring(seed)
        keys = _NEEDLES[arrangement](ids, np.random.default_rng(seed + 1))
        assert all(0 <= key < RING128 for key in keys)
        assert _search(ids, keys) == _bisect_words(ids, keys)

    @given(
        pool=st.sets(ids128, min_size=0, max_size=30),
        keys=st.lists(ids128, min_size=0, max_size=24),
        shared_high=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_definition_and_order_invariance(self, pool, keys, shared_high,
                                             seed):
        if shared_high:
            # fold ring and keys under one high word: every answer is
            # settled by the low-word search, on un-permuted low words
            pool = {(5 << 64) | (v & (RING - 1)) for v in pool}
            keys = [(5 << 64) | (v & (RING - 1)) for v in keys]
        ids = sorted(pool)
        # ring members, their neighbours and repeats among the needles
        keys = keys + ids[:3] + [(v + 1) % RING128 for v in ids[:3]] + keys[:2]
        want = _bisect_words(ids, keys)
        assert _search(ids, keys) == want
        perm = np.random.default_rng(seed).permutation(len(keys)).tolist()
        assert _search(ids, [keys[i] for i in perm]) == [want[i] for i in perm]

    def test_answers_have_index_dtype_and_one_per_needle(self):
        ids = _uniform_ring(3)
        hi, lo = pack_ids(ids)
        for count in (0, 1, 2, 50):
            khi, klo = pack_ids(ids[:count])
            got = searchsorted_words(hi, lo, khi, klo)
            assert got.shape == (count,) and got.dtype == np.intp
        # scalars are one needle
        assert searchsorted_words(hi, lo, np.uint64(0), np.uint64(0)).tolist() == [0]


#: ids drawn under a few high words (the two ends of the word range
#: among them, so runs straddle the wrap): long runs of equal high
#: words, where the low words decide every comparison
_few_high_words = st.builds(
    lambda high, low: (high << 64) | low,
    st.sampled_from((0, 1, 7, 2**63, 2**64 - 1)),
    st.integers(0, 2**64 - 1) | st.integers(0, 64),
)


class TestClusteredSearch:
    """``searchsorted_words`` on rings made of runs of equal high words:
    the one-needle path searches a run's low words, the batch path
    bisects them; both must be ``bisect_left``."""

    @given(
        pool=st.sets(_few_high_words, min_size=0, max_size=40),
        keys=st.lists(_few_high_words, min_size=0, max_size=12),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_needle_and_batch_equal_bisect_left(self, pool, keys):
        ids = sorted(pool)
        # ring members and their neighbours are the run-boundary cases
        keys = keys + ids[:4] + [(v + 1) % RING128 for v in ids[-4:]]
        want = _bisect_words(ids, keys)
        assert _search(ids, keys) == want
        assert [_search(ids, [key])[0] for key in keys] == want

    def test_batch_in_one_run_of_ten_thousand_high_words(self):
        # 10^4 ids under one high word, between two short runs: a batch
        # bisects the long run's low words instead of stepping through it
        rng = np.random.default_rng(48)
        lows = rng.integers(0, 2**64, size=10_000, dtype=np.uint64).tolist()
        run = sorted({(7 << 64) | low for low in lows})
        ids = sorted({6 << 64, (6 << 64) | 5, 8 << 64, (8 << 64) | 5} | set(run))
        keys = (
            run[::97] + [v + 1 for v in run[::89]] + [v - 1 for v in run[::83]]
            + [(7 << 64) | low for low in
               rng.integers(0, 2**64, size=64, dtype=np.uint64).tolist()]
            + [7 << 64, (7 << 64) | (2**64 - 1), (6 << 64) | 3, (8 << 64) | 9,
               0, RING128 - 1]
        )
        keys = [keys[i] for i in rng.permutation(len(keys)).tolist()]
        assert _search(ids, keys) == _bisect_words(ids, keys)


def _lexsort_replicas(ids: list[int], keys: list[int], k: int) -> np.ndarray:
    """The replica table by its definition: the ``2k`` ids around each
    key's insertion point, ranked by ``(ring distance, id)`` with one
    ``np.lexsort`` (what ``replica_table_words`` computed before it
    merged two runs)."""
    hi, lo = pack_ids(ids)
    khi, klo = pack_ids(keys)
    pos = searchsorted_words(hi, lo, khi, klo)
    cand = (pos[:, None] + np.arange(-k, k)) % len(ids)
    dist_hi, dist_lo = ring_distance_words(hi[cand], lo[cand],
                                           khi[:, None], klo[:, None])
    order = np.lexsort((lo[cand], hi[cand], dist_lo, dist_hi), axis=-1)
    return np.take_along_axis(cand, order[:, :k], axis=1)


class TestReplicaMerge:
    """``replica_table_words`` with ``2k < n`` is a k-step merge of the
    runs down and up from the insertion point; it must rank exactly as
    the lexsort definition and as ``closest_ids`` on the whole ring."""

    @given(
        k=st.integers(1, 6),
        pool=st.sets(_few_high_words, min_size=3, max_size=40),
        centres=st.lists(_few_high_words, min_size=1, max_size=6),
        gaps=st.lists(st.integers(1, 2**70) | st.integers(1, 8),
                      min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_merge_equals_the_lexsort_definition(self, k, pool, centres,
                                                 gaps):
        # every centre gets ids at equal distances either side: a key
        # there is an exact tie, on whichever side of the wrap
        for centre, gap in zip(centres, gaps):
            pool |= {(centre - gap) % RING128, (centre + gap) % RING128}
        ids = sorted(pool)
        k = min(k, (len(ids) - 1) // 2)  # the merge branch: 2k < n
        keys = centres + ids[:3] + [0, RING128 - 1, RING128 // 2]
        hi, lo = pack_ids(ids)
        khi, klo = pack_ids(keys)
        table = replica_table_words(hi, lo, khi, klo, k)
        assert np.array_equal(table, _lexsort_replicas(ids, keys, k))
        for row, key in zip(table.tolist(), keys):
            assert [ids[i] for i in row] == closest_ids(ids, key, k)


class TestKeyWordsMustPair:
    """A lone low word used to broadcast across every key."""

    RING_IDS = _uniform_ring(11, size=60)

    @pytest.mark.parametrize("count_hi, count_lo", ((5, 1), (1, 5), (4, 3), (0, 1)))
    def test_searchsorted_words(self, count_hi, count_lo):
        hi, lo = pack_ids(self.RING_IDS)
        with pytest.raises(ValueError, match="key words"):
            searchsorted_words(hi, lo, hi[:count_hi], lo[:count_lo])

    def test_searchsorted_words_rejects_two_dimensional_keys(self):
        hi, lo = pack_ids(self.RING_IDS)
        with pytest.raises(ValueError, match="key words"):
            searchsorted_words(hi, lo, hi[:6].reshape(2, 3), lo[:6].reshape(2, 3))

    def test_closest_index_words(self):
        hi, lo = pack_ids(self.RING_IDS)
        with pytest.raises(ValueError, match="key words"):
            closest_index_words(hi, lo, hi[:5], lo[:1])

    @pytest.mark.parametrize("ring_size", (60, 4))
    def test_replica_table_words(self, ring_size):
        # 4 ids with k=3 is ranked whole and never reaches the search
        hi, lo = pack_ids(self.RING_IDS[:ring_size])
        khi, klo = pack_ids(self.RING_IDS[:5])
        with pytest.raises(ValueError, match="key words"):
            replica_table_words(hi, lo, khi, klo[:1], 3)
