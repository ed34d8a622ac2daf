"""Shared-memory snapshot sharding: equivalence, metadata pickling,
lifecycle, and the plain-snapshot fallback.

The contract under test is the one the scale runners lean on: a
:class:`~repro.perf.shm.SharedCompactSnapshot` must be bitwise
indistinguishable from the plain :class:`~repro.perf.compact.
CompactSnapshot` it wraps — same arrays, same restored overlay, same
routed rows — while pickling to metadata only and degrading to plain
snapshots when the platform has no shared memory.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.perf import shm
from repro.perf.compact import CompactOverlay, CompactSnapshot
from repro.perf.shm import SharedCompactSnapshot, share_base, shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no multiprocessing.shared_memory"
)


@pytest.fixture
def snap():
    overlay = CompactOverlay.random(400, seed=11)
    overlay.fail_positions(np.arange(0, 400, 7))
    return overlay.snapshot()


@pytest.fixture
def published(snap):
    shared = SharedCompactSnapshot.publish(snap)
    yield shared
    shared.unlink()


class TestEquivalence:
    def test_arrays_bitwise_identical(self, snap, published):
        assert (published.hi == snap.hi).all()
        assert (published.lo == snap.lo).all()
        assert (published.alive == snap.alive).all()

    def test_view_is_zero_copy(self, published):
        view = published.view()
        assert isinstance(view, CompactSnapshot)
        assert view.hi.base is not None  # a view over the segment

    def test_attached_views_are_read_only(self, snap, published):
        clone = pickle.loads(pickle.dumps(published))
        try:
            assert not clone.hi.flags.writeable
            assert not clone.alive.flags.writeable
        finally:
            shm._ATTACHED.pop(published.name, None)

    def test_restore_routes_identically(self, snap, published):
        a = snap.restore()
        b = published.restore()
        src = a.alive_positions()[:32]
        key_hi = np.arange(32, dtype=np.uint64) * np.uint64(7919)
        key_lo = np.arange(32, dtype=np.uint64) * np.uint64(104729)
        ra = a.route_many(src, key_hi, key_lo)
        rb = b.route_many(src, key_hi, key_lo)
        assert (ra.dest_pos == rb.dest_pos).all()
        assert (ra.hops == rb.hops).all()
        assert (ra.success == rb.success).all()

    def test_restore_does_not_mutate_segment(self, snap, published):
        overlay = published.restore()
        overlay.fail_positions(overlay.alive_positions()[:5])
        assert (published.alive == snap.alive).all()

    def test_worker_restore_reads_the_segment_in_place(self, snap, published):
        clone = pickle.loads(pickle.dumps(published))
        try:
            overlay = clone.restore()
            assert np.shares_memory(overlay.hi, clone.hi)
            assert not overlay.hi.flags.writeable
            assert not np.shares_memory(overlay.alive, clone.alive)
        finally:
            shm._ATTACHED.pop(published.name, None)

    def test_metadata_mirrors_snapshot(self, snap, published):
        assert published.size == len(snap.hi)
        assert published.b_bits == snap.b_bits
        assert published.leaf_set_size == snap.leaf_set_size
        assert published.membership_epoch == snap.membership_epoch
        assert published.num_alive == snap.num_alive
        assert published.nbytes == 17 * len(snap.hi)


class TestPickle:
    def test_pickle_is_metadata_only(self, published):
        blob = pickle.dumps(published)
        # 400 nodes back 6800 bytes of arrays; metadata stays tiny
        assert len(blob) < 600

    def test_unpickled_attaches_lazily_and_matches(self, snap, published):
        clone = pickle.loads(pickle.dumps(published))
        assert clone._views is None  # nothing attached yet
        try:
            assert (clone.hi == snap.hi).all()
            assert (clone.alive == snap.alive).all()
            assert clone.attach_seconds >= 0.0
        finally:
            # drop the process-local attach memo so later tests that
            # reuse a segment name start clean
            shm._ATTACHED.pop(published.name, None)

    def test_unpickled_clone_is_not_owner(self, snap, published):
        clone = pickle.loads(pickle.dumps(published))
        clone.unlink()  # must be a no-op for non-owners
        assert (published.hi == snap.hi).all()


class TestLifecycle:
    def test_unlink_is_idempotent(self, snap):
        shared = SharedCompactSnapshot.publish(snap)
        shared.unlink()
        shared.unlink()

    def test_publisher_attach_cost_is_zero(self, published):
        assert published.attach_seconds == 0.0


class TestShareBase:
    def test_wraps_snapshots_and_passes_others_through(self, snap):
        bases = {"base": snap, "extra": 42}
        shared, published = share_base(bases)
        try:
            assert isinstance(shared["base"], SharedCompactSnapshot)
            assert shared["extra"] == 42
            assert published == [shared["base"]]
        finally:
            for segment in published:
                segment.unlink()

    def test_unavailable_platform_falls_back(self, snap, monkeypatch):
        monkeypatch.setattr(shm, "_shared_memory", None)
        bases = {"base": snap}
        shared, published = share_base(bases)
        assert shared is bases
        assert published == []

    def test_os_refusal_falls_back_and_cleans_up(self, snap, monkeypatch):
        real_publish = SharedCompactSnapshot.publish.__func__
        calls = {"n": 0}

        def flaky_publish(cls, value):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError("no space on /dev/shm")
            return real_publish(cls, value)

        monkeypatch.setattr(
            SharedCompactSnapshot, "publish", classmethod(flaky_publish)
        )
        bases = {"a": snap, "b": snap}
        shared, published = share_base(bases)
        assert shared is bases
        assert published == []
