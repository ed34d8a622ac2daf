"""Tests for repro.perf.compact: the compact-engine equivalence contract.

The load-bearing property (DESIGN.md §6d): a :class:`CompactOverlay`'s
derived state — leaf windows, routing cells, replica sets, route
decisions — must be byte-identical (canonical ``rows_digest``) to the
object engine's.  Three layers are pinned here:

1. bootstrap equality against ``PastryNetwork.build`` on the same ids
   (and against the ``TapSystem.bootstrap`` id population);
2. canonical-maintenance equality: after fail/revive/join churn the
   compact state equals a *fresh* build over the current alive set;
3. observable equality: replica sets vs :class:`ReplicatedStore`,
   routes hop-for-hop vs an object-engine build of the alive ids
   (clean under a strict :class:`InvariantAuditor`), destinations vs
   ``closest_alive``.

Plus the sharding contract: snapshots pickle, restore isolated
overlays, and fan out through ``run_trials`` (trials reach the base
through ``base_snapshot``) with a workers-independent digest.
"""

from __future__ import annotations

import gc
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.idspace import unpack_words
from repro.core.system import TapSystem
from repro.obs import InvariantAuditor
from repro.past import ReplicatedStore
from repro.pastry import PastryNetwork, RoutingError
from repro.perf import base_snapshot, rows_digest, run_trials
from repro.perf.compact import CompactOverlay, CompactSnapshot
from repro.perf.parallel import _SNAPSHOT_CACHE
from repro.util.ids import ID_SPACE
from repro.util.rng import SeedSequenceFactory
from tests.perf.test_packet import _clustered_overlay

SEED = 7
N = 300


def network_rows(net: PastryNetwork) -> list[dict]:
    """Canonical derived-state rows of the *alive* nodes of an object
    network — the shape both engines are compared in."""
    rows = []
    for nid in sorted(net.alive_ids):
        rows.append({
            "id": nid,
            "leaf": net.leaves(nid),
            "cells": sorted(
                [row, col, entry]
                for (row, col), entry in net.cells(nid).items()
            ),
        })
    return rows


def churn_script(overlay: CompactOverlay, joins: int = 5) -> None:
    """Deterministic fail/revive/join mix (wide enough to shift leaf
    windows, routing rows, and the alive-view cache)."""
    ids = overlay.alive_ids()
    victims = ids[3::7][:20]
    overlay.fail(victims)
    overlay.revive(victims[:8])
    rng = SeedSequenceFactory(SEED).pyrandom("compact-churn-join")
    fresh = []
    while len(fresh) < joins:
        cand = rng.getrandbits(128)
        if cand not in overlay:
            fresh.append(cand)
    overlay.join(fresh)


class TestBootstrapEquivalence:
    def test_bootstrap_population_matches_object_system(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        system = TapSystem.bootstrap(N, seed=SEED)
        assert overlay.alive_ids() == sorted(system.network.alive_ids)

    def test_bootstrap_digest_matches_object_build(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        net = PastryNetwork.build(overlay.alive_ids())
        assert rows_digest(network_rows(overlay.twin())) == rows_digest(network_rows(net))

    @pytest.mark.parametrize("n", (1, 2, 3, 17))
    def test_tiny_rings(self, n):
        overlay = CompactOverlay.bootstrap(n, seed=SEED)
        net = PastryNetwork.build(overlay.alive_ids())
        assert rows_digest(network_rows(overlay.twin())) == rows_digest(network_rows(net))

    def test_random_bootstrap_is_sorted_and_unique(self):
        overlay = CompactOverlay.random(5_000, seed=SEED)
        ids = unpack_words(overlay.hi, overlay.lo)
        assert ids == sorted(set(ids))
        assert overlay.num_alive == 5_000

    @pytest.mark.parametrize("seed, digest", [
        (7, "6e8666d94e2f2ab21e5543c323de67b1dcc08f640164c320cab30c52de3d6d36"),
        (2004, "00f5b614fcd27290d6d89fc821b44ed3974f10a2b69ff01bf607e30316e9a27b"),
    ])
    def test_random_bootstrap_is_pinned(self, seed, digest):
        # sha256 over the sorted (hi, lo) words of the 10^5 scale ring:
        # any change to the draw, the sort or the duplicate redraw shows
        overlay = CompactOverlay.random(100_000, seed=seed)
        words = overlay.hi.astype("<u8").tobytes() + overlay.lo.astype("<u8").tobytes()
        assert hashlib.sha256(words).hexdigest() == digest


class TestTwin:
    """``twin()`` is the object engine reading the alive words in place."""

    def test_clustered_ring_digest_matches_object_build(self):
        # empty cells and one deep prefix run: the rare-case rows
        overlay = _clustered_overlay(SEED)
        net = PastryNetwork.build(overlay.alive_ids())
        assert rows_digest(network_rows(overlay.twin())) == rows_digest(network_rows(net))

    @pytest.mark.parametrize("n", (1, 2, 17))
    def test_view_reads_as_the_alive_id_list(self, n):
        overlay = CompactOverlay.bootstrap(n, seed=SEED)
        view, ids = overlay.twin().alive_ids, overlay.alive_ids()
        assert len(view) == n and list(view) == ids
        for idx in range(-n, n):
            assert view[idx] == ids[idx]
        for lo, hi in ((None, None), (1, None), (-3, None), (None, -1), (2, 40)):
            assert view[lo:hi] == ids[lo:hi]
        with pytest.raises(IndexError):
            view[n]

    def test_membership_events_on_a_twin_raise_and_leave_the_overlay(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay.fail(overlay.alive_ids()[::9])
        ids = overlay.alive_ids()
        words = (overlay.hi.copy(), overlay.lo.copy(), overlay.alive.copy())
        epoch = overlay.membership_epoch
        twin = overlay.twin()
        with pytest.raises(TypeError):
            twin.fail(ids[5])
        with pytest.raises(AttributeError):
            twin.join(ids[5] + 1)
        for kept, now in zip(words, (overlay.hi, overlay.lo, overlay.alive)):
            assert np.array_equal(kept, now)
        assert overlay.membership_epoch == epoch
        assert overlay.alive_ids() == ids == list(twin.alive_ids)
        assert twin.membership_epoch == 0

    def test_route_leaves_no_cyclic_garbage(self):
        """A cold walk's twin is freed by reference counting: nothing
        is left for the cycle collector."""
        overlay = CompactOverlay.bootstrap(10_000, seed=SEED)
        rng = np.random.default_rng(SEED)
        ids = overlay.alive_ids()
        pairs = [(ids[i], int(k)) for i, k in zip(
            rng.integers(0, len(ids), 16), rng.integers(0, 2**63, 16))]
        gc.collect()
        gc.disable()
        try:
            for src, key in pairs:
                overlay.route(src, key << 65)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestChurnIsCanonicalMaintenance:
    def test_post_churn_digest_matches_fresh_build(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        churn_script(overlay)
        net = PastryNetwork.build(overlay.alive_ids())
        assert rows_digest(network_rows(overlay.twin())) == rows_digest(network_rows(net))

    def test_epoch_bumps_only_on_change(self):
        overlay = CompactOverlay.bootstrap(50, seed=SEED)
        nid = overlay.alive_ids()[0]
        epoch = overlay.membership_epoch
        overlay.fail([nid])
        assert overlay.membership_epoch == epoch + 1
        overlay.fail_positions(overlay.positions_of([nid]))  # already dead
        assert overlay.membership_epoch == epoch + 1
        overlay.revive([nid])
        assert overlay.membership_epoch == epoch + 2
        overlay.revive_positions(overlay.positions_of([nid]))  # already alive
        assert overlay.membership_epoch == epoch + 2

    def test_alive_count_cache_tracks_every_mutation(self):
        """``num_alive`` is epoch-cached and delta-maintained; it must
        equal a fresh mask sum before and after every mutator,
        including duplicate positions and no-op batches."""
        overlay = CompactOverlay.bootstrap(60, seed=SEED)

        def check():
            assert overlay.num_alive == int(overlay.alive.sum())

        check()  # warm the cache so the delta-carry path is exercised
        victims = overlay.positions_of(overlay.alive_ids()[:5])
        duplicated = np.concatenate([victims, victims[:3]])
        overlay.fail_positions(duplicated)
        check()
        overlay.fail_positions(victims)  # all already dead: no-op
        check()
        overlay.revive_positions(np.concatenate([victims[:2], victims[:2]]))
        check()
        overlay.revive_positions(duplicated)  # partially-alive batch
        check()
        ghost = next(v for v in range(1, ID_SPACE) if v not in overlay)
        overlay.join([ghost])
        check()
        overlay.fail([ghost])
        overlay.join([ghost])  # join-as-revive of a tombstone
        check()

    def test_alive_count_correct_on_cold_cache(self):
        overlay = CompactOverlay.bootstrap(60, seed=SEED)
        # mutate before any num_alive read: the stale cache must not
        # be carried, only recomputed
        overlay.fail_positions(overlay.positions_of(overlay.alive_ids()[:7]))
        assert overlay.num_alive == int(overlay.alive.sum()) == 53

    def test_restore_seeds_alive_count(self):
        overlay = CompactOverlay.bootstrap(60, seed=SEED)
        overlay.fail(overlay.alive_ids()[:4])
        restored = overlay.snapshot().restore()
        assert restored._count_epoch == restored.membership_epoch
        assert restored._alive_count == 56
        assert restored.num_alive == int(restored.alive.sum()) == 56
        restored.fail_positions(restored.positions_of(restored.alive_ids()[:2]))
        assert restored.num_alive == 54

    def test_join_alive_id_raises(self):
        overlay = CompactOverlay.bootstrap(50, seed=SEED)
        taken = overlay.alive_ids()[10]
        with pytest.raises(ValueError, match="already in the overlay"):
            overlay.join([taken])

    def test_join_revives_tombstone_in_place(self):
        overlay = CompactOverlay.bootstrap(50, seed=SEED)
        victim = overlay.alive_ids()[10]
        size = overlay.size
        overlay.fail([victim])
        assert not overlay.is_alive(victim)
        overlay.join([victim])
        assert overlay.is_alive(victim)
        assert overlay.size == size  # no duplicate slot

    def test_unknown_ids_raise_keyerror(self):
        overlay = CompactOverlay.bootstrap(20, seed=SEED)
        ghost = next(
            v for v in range(1, ID_SPACE) if v not in overlay
        )
        with pytest.raises(KeyError, match="unknown node id"):
            overlay.positions_of([ghost])
        assert not overlay.is_alive(ghost)
        assert ghost not in overlay


class TestObservableEquality:
    def test_replica_sets_match_replicated_store(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        net = PastryNetwork.build(overlay.alive_ids())
        store = ReplicatedStore(net, replication_factor=4)
        rng = SeedSequenceFactory(SEED).pyrandom("replica-keys")
        keys = [rng.getrandbits(128) for _ in range(64)]
        assert overlay.replica_ids(keys, 4) == [store.replica_set(k) for k in keys]

    def test_replica_sets_match_after_churn(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        churn_script(overlay)
        net = PastryNetwork.build(overlay.alive_ids())
        store = ReplicatedStore(net, replication_factor=3)
        rng = SeedSequenceFactory(SEED).pyrandom("replica-keys-churn")
        keys = [rng.getrandbits(128) for _ in range(64)]
        assert overlay.replica_ids(keys, 3) == [store.replica_set(k) for k in keys]

    def test_routes_match_bridge_hop_for_hop(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        churn_script(overlay)
        alive = overlay.alive_ids()
        bridged = PastryNetwork.build(alive)
        rng = SeedSequenceFactory(SEED).pyrandom("route-spots")
        for _ in range(50):
            src = alive[rng.randrange(len(alive))]
            key = rng.getrandbits(128)
            compact = overlay.route(src, key)
            assert compact == bridged.route(src, key)
            assert compact[-1] == overlay.closest_alive(key)
            assert compact[-1] == bridged.closest_alive(key)
        InvariantAuditor(bridged).assert_clean("routed object twin")

    def test_replica_k_clamped_to_alive_population(self):
        overlay = CompactOverlay.bootstrap(5, seed=SEED)
        tables = overlay.replica_ids([123], k=16)
        assert sorted(tables[0]) == overlay.alive_ids()

    def test_replica_query_requires_alive_nodes(self):
        overlay = CompactOverlay.bootstrap(4, seed=SEED)
        overlay.fail(overlay.alive_ids())
        with pytest.raises(RoutingError, match="no alive nodes"):
            overlay.closest_alive(1)

    def test_alive_mask_resolves_by_content_across_joins(self):
        overlay = CompactOverlay.bootstrap(60, seed=SEED)
        sample = overlay.alive_ids()[5:9]
        hi = np.array([v >> 64 for v in sample], dtype=np.uint64).reshape(2, 2)
        lo = np.array([v & ((1 << 64) - 1) for v in sample], dtype=np.uint64).reshape(2, 2)
        assert overlay.alive_mask(hi, lo).all()
        overlay.fail([sample[0]])
        churn_script(overlay, joins=3)  # joins shift array positions
        mask = overlay.alive_mask(hi, lo)
        assert mask.shape == (2, 2)
        assert not mask[0, 0]
        expected = [overlay.is_alive(v) for v in sample]
        assert mask.ravel().tolist() == expected


class TestMembershipPositionsFailClosed:
    """``fail_positions``/``revive_positions`` take positions from
    outside (scale trials, fault plans): a negative one used to wrap
    NumPy-style onto the *last* node, a fractional one to truncate onto
    its neighbour.  Both raise before anything is written."""

    @staticmethod
    def _state(overlay):
        return (overlay.alive.copy(), overlay.membership_epoch,
                overlay.num_alive)

    def _assert_rejected(self, overlay, call, positions, match):
        alive, epoch, count = self._state(overlay)
        with pytest.raises(ValueError, match=match):
            call(positions)
        assert (overlay.alive == alive).all()
        assert overlay.membership_epoch == epoch
        assert overlay.num_alive == count

    @pytest.mark.parametrize("bad", (-1, N, -N - 1))
    def test_fail_positions_rejects_positions_outside_the_overlay(self, bad):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        self._assert_rejected(overlay, overlay.fail_positions, [3, bad, -7],
                              rf"positions\[1\] = {bad} .*{N}-node")

    @pytest.mark.parametrize("bad", (-1, N, -N - 1))
    def test_revive_positions_rejects_positions_outside_the_overlay(self, bad):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay.fail_positions([3, N - 1])
        self._assert_rejected(overlay, overlay.revive_positions, [3, bad],
                              rf"positions\[1\] = {bad} .*{N}-node")

    @pytest.mark.parametrize("bad", (
        np.array([1.5]),  # used to kill position 1
        np.array([2.0]),
        np.zeros(N, dtype=bool),  # a mask is not a list of positions
    ))
    def test_positions_must_be_integers(self, bad):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay.fail_positions([2])
        for call in (overlay.fail_positions, overlay.revive_positions):
            self._assert_rejected(overlay, call, bad, "must be integers")

    def test_valid_positions_still_pass_in_any_integer_spelling(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay.fail_positions([0, N - 1])
        overlay.fail_positions(np.array([5], dtype=np.uint8))
        overlay.fail_positions([])  # an empty list arrives as float64
        assert overlay.num_alive == N - 3
        overlay.revive_positions(np.array([0, 5, N - 1], dtype=np.int32))
        assert overlay.num_alive == N and overlay.alive.all()


class TestKeyWordsMustPair:
    """A lone low word used to broadcast across every key."""

    def test_replica_positions(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        hi = np.arange(5, dtype=np.uint64)
        with pytest.raises(ValueError, match="key words"):
            overlay.replica_positions(hi, hi[:1], 3)
        # a ring small enough to be ranked whole never reaches the search
        tiny = CompactOverlay.bootstrap(4, seed=SEED)
        with pytest.raises(ValueError, match="key words"):
            tiny.replica_positions(hi, hi[:1], 3)

    def test_alive_mask(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        hi = overlay.hi[:5]
        with pytest.raises(ValueError, match="key words"):
            overlay.alive_mask(hi, overlay.lo[:1])


class TestTieBreaking:
    """Deterministic tie-breaking at exact ring-distance ties and
    id-space wrap, mirroring the figure ring's ``TestReplicaTable``
    wrap tests — the convention everywhere is closest first, smaller id
    on ties."""

    @staticmethod
    def _oracle(ids, key, k):
        from repro.util.ids import closest_ids

        return closest_ids(ids, key, k)

    def test_replica_positions_exact_tie_prefers_smaller_id(self):
        key = 1 << 100
        d = 1 << 90
        ids = sorted([(key - d) % ID_SPACE, (key + d) % ID_SPACE,
                      (key + 5 * d) % ID_SPACE])
        overlay = CompactOverlay.from_ids(ids)
        assert overlay.replica_ids([key], 2)[0] == self._oracle(ids, key, 2)
        # the equidistant pair must come back smaller-id first
        assert overlay.replica_ids([key], 2)[0][0] == min(
            (key - d) % ID_SPACE, (key + d) % ID_SPACE
        )

    def test_replica_positions_tie_across_the_wrap(self):
        # key at the very top of the ring; its two closest neighbours
        # straddle position 0 of the sorted array at equal distance
        d = 1 << 80
        key = ID_SPACE - 1
        ids = sorted([(key + d) % ID_SPACE, (key - d) % ID_SPACE,
                      1 << 120, 1 << 121])
        overlay = CompactOverlay.from_ids(ids)
        for k in (1, 2, 3, 4):
            assert overlay.replica_ids([key], k)[0] == self._oracle(ids, key, k)

    @given(
        grid=st.lists(st.integers(0, 15), min_size=2, max_size=12, unique=True),
        key_slot=st.integers(0, 16),
        k=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_replica_positions_match_oracle_on_tie_heavy_grids(
        self, grid, key_slot, k
    ):
        # ids on a coarse 16-slot grid force exact distance ties and
        # wrap crossings; keys at slot boundaries sort at positions
        # 0/n, and k up to 2k ≈ n exercises the windowed branch edges
        step = ID_SPACE // 16
        ids = sorted(slot * step for slot in grid)
        key = (key_slot * step - 1) % ID_SPACE if key_slot else 0
        overlay = CompactOverlay.from_ids(ids)
        assert overlay.replica_ids([key], k)[0] == self._oracle(ids, key, k)

    def test_route_terminates_at_smaller_id_on_exact_tie(self):
        key = 1 << 100
        d = 1 << 90
        ids = sorted([(key - d) % ID_SPACE, (key + d) % ID_SPACE,
                      (key + 7 * d) % ID_SPACE])
        overlay = CompactOverlay.from_ids(ids)
        winner = min((key - d) % ID_SPACE, (key + d) % ID_SPACE)
        for src in ids:
            assert overlay.route(src, key)[-1] == winner

    @given(
        grid=st.lists(st.integers(0, 15), min_size=1, max_size=10, unique=True),
        key_slot=st.integers(0, 15),
    )
    @settings(max_examples=100, deadline=None)
    def test_route_destination_matches_oracle_on_tie_heavy_grids(
        self, grid, key_slot
    ):
        step = ID_SPACE // 16
        ids = sorted(slot * step for slot in grid)
        key = key_slot * step + step // 2
        overlay = CompactOverlay.from_ids(ids)
        expected = self._oracle(ids, key, 1)[0]
        for src in ids:
            assert overlay.route(src, key)[-1] == expected


class TestSnapshotSharding:
    def test_snapshot_restore_is_isolated(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        snap = overlay.snapshot()
        base_digest = rows_digest(network_rows(snap.restore().twin()))
        churned = snap.restore()
        churn_script(churned)
        assert rows_digest(network_rows(snap.restore().twin())) == base_digest
        assert rows_digest(network_rows(churned.twin())) != base_digest

    def test_snapshot_arrays_are_read_only(self):
        snap = CompactOverlay.bootstrap(30, seed=SEED).snapshot()
        with pytest.raises(ValueError):
            snap.alive[0] = False

    def test_restore_shares_the_id_words_and_copies_alive(self):
        snap = CompactOverlay.bootstrap(30, seed=SEED).snapshot()
        overlay = snap.restore()
        assert np.shares_memory(snap.hi, overlay.hi)
        assert np.shares_memory(snap.lo, overlay.lo)
        assert not np.shares_memory(snap.alive, overlay.alive)
        # a shared word cannot be written in place, so it cannot reach
        # the snapshot or a sibling restore
        for words in (overlay.hi, overlay.lo):
            with pytest.raises(ValueError):
                words[0] = 0
            with pytest.raises(ValueError):
                words += 1
        overlay.alive[0] = False  # the flags are the overlay's own
        assert snap.alive[0]

    def test_churn_on_one_restore_leaves_snapshot_and_sibling_unchanged(self):
        snap = CompactOverlay.bootstrap(N, seed=SEED).snapshot()
        words = (snap.hi.copy(), snap.lo.copy(), snap.alive.copy())
        churned = snap.restore()
        sibling = snap.restore()
        sibling_digest = rows_digest(network_rows(sibling.twin()))
        ids = churned.alive_ids()
        churned.fail(ids[:4])
        churned.revive(ids[1:3])
        churned.join([ids[0] + 1, ids[-1] + 1])
        # join replaced the churned overlay's words wholesale
        assert not np.shares_memory(snap.hi, churned.hi)
        assert churned.size == len(words[0]) + 2
        for kept, now in zip(words, (snap.hi, snap.lo, snap.alive)):
            assert np.array_equal(kept, now)
        assert np.array_equal(sibling.alive, words[2])
        assert rows_digest(network_rows(sibling.twin())) == sibling_digest
        assert sibling.alive_ids() == ids

    def test_snapshot_pickle_roundtrip(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        churn_script(overlay)
        snap = overlay.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, CompactSnapshot)
        assert rows_digest(network_rows(clone.restore().twin())) == rows_digest(
            network_rows(snap.restore().twin())
        )
        assert clone.membership_epoch == snap.membership_epoch

    @pytest.mark.parametrize("workers", (1, 2))
    def test_shared_fanout_digest_is_worker_independent(self, workers):
        snap = base_snapshot(_SHARED_TOKEN, _shared_build)
        try:
            digests = run_trials(_churned_digest, [()] * 2, workers)
        finally:
            _SNAPSHOT_CACHE.pop(_SHARED_TOKEN)
        local = snap.restore()
        churn_script(local)
        expected = rows_digest(network_rows(local.twin()))
        assert digests == [expected, expected]

    def test_object_build_of_the_ids_carries_a_full_system(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        network = PastryNetwork.build(overlay.alive_ids())
        system = TapSystem(network, ReplicatedStore(network, 3), SeedSequenceFactory(2))
        assert sorted(system.network.alive_ids) == overlay.alive_ids()
        rng = SeedSequenceFactory(SEED).pyrandom("system-spot")
        key = rng.getrandbits(128)
        assert system.store.replica_set(key) == overlay.replica_ids([key], 3)[0]


class TestMemoryAccounting:
    """The memory-lean kernel contract: epoch-cached alive views and
    measured footprints."""

    def test_nbytes_is_17_bytes_per_node(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        assert overlay.nbytes == 17 * overlay.size
        assert overlay.snapshot().nbytes == 17 * overlay.size

    def test_alive_positions_matches_flatnonzero_and_caches(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay.fail(overlay.alive_ids()[2::9][:12])
        pos = overlay.alive_positions()
        assert (pos == np.flatnonzero(overlay.alive)).all()
        assert overlay.alive_positions() is pos  # same epoch, same array
        overlay.revive(unpack_words(overlay.hi, overlay.lo)[2:3])
        fresh = overlay.alive_positions()
        assert fresh is not pos  # epoch bumped, view rebuilt
        assert (fresh == np.flatnonzero(overlay.alive)).all()

    def test_scratch_nbytes_counts_the_alive_view(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay._bump_epoch()
        assert overlay.scratch_nbytes == 0
        overlay.alive_ids()
        # hi and lo words plus one position per alive node
        assert overlay.scratch_nbytes == 3 * 8 * overlay.num_alive

    def test_alive_positions_gathers_no_id_words(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        overlay._bump_epoch()
        pos = overlay.alive_positions()
        # a churn round reads positions, then fails some of them: words
        # gathered here would be released unread
        assert overlay.scratch_nbytes <= 8 * overlay.num_alive
        _, _, idx = overlay._alive_arrays()
        assert idx is pos  # one alive scan per epoch serves both
        assert overlay.scratch_nbytes == 3 * 8 * overlay.num_alive

    def test_routing_scratch_stabilises_across_calls(self):
        overlay = CompactOverlay.bootstrap(N, seed=SEED)
        src = overlay.alive_positions()[:40].copy()
        key_hi = np.arange(40, dtype=np.uint64) * np.uint64(7919)
        key_lo = np.arange(40, dtype=np.uint64) * np.uint64(104729)
        overlay.route_many(src, key_hi, key_lo)
        settled = overlay.scratch_nbytes
        for _ in range(3):
            overlay.route_many(src, key_hi, key_lo)
        # a routed batch parks nothing on the overlay past the view
        assert overlay.scratch_nbytes == settled == 3 * 8 * overlay.num_alive

_SHARED_TOKEN = ("compact-shared", SEED, N)


def _shared_build():
    return CompactOverlay.bootstrap(N, seed=SEED).snapshot()


def _churned_digest():
    overlay = base_snapshot(_SHARED_TOKEN, _shared_build).restore()
    churn_script(overlay)
    return rows_digest(network_rows(overlay.twin()))
