"""Zero-copy snapshot sharding over ``multiprocessing.shared_memory``.

``run_trials(shared=...)`` ships its payload to every worker through
the pool-initializer pickle.  For a :class:`~repro.perf.compact.
CompactSnapshot` that pickle *is* the arrays — 17 MB at N=10^6, paid
once per worker and again as a resident copy inside each.  This module
replaces the array payload with a named shared-memory segment:

* :meth:`SharedCompactSnapshot.publish` copies the snapshot's three
  arrays into **one** ``SharedMemory`` block (layout ``hi | lo |
  alive``) owned by the publishing process;
* pickling a :class:`SharedCompactSnapshot` serialises *metadata only*
  (segment name, element count, overlay parameters) — a few hundred
  bytes regardless of N;
* workers attach lazily on first array access and map the same
  physical pages read-only, so forking a 10^6-node base costs page
  tables, not copies.  The attach time is recorded in
  ``attach_seconds`` (0 for the publisher), which runners surface in
  the manifest's volatile section as the per-worker deserialisation
  cost.

Equivalence contract: ``view()``/``restore()`` produce arrays bitwise
identical to the plain snapshot's, so experiment rows (and digests)
cannot depend on whether a base was shipped by pickle or by segment.
Publishers must :meth:`unlink` in a ``finally`` — on platforms or
sandboxes without ``/dev/shm`` the helpers degrade to plain snapshots
rather than failing the run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.perf.compact import CompactSnapshot

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


def shm_available() -> bool:
    """Whether this platform can create shared-memory segments."""
    return _shared_memory is not None


#: Process-local attach memo: segment name -> (SharedMemory, views).
#: One worker runs many trials against the same base; the first trial
#: pays the (microsecond) attach, the rest reuse the mapping.
_ATTACHED: dict = {}


class SharedCompactSnapshot:
    """A :class:`CompactSnapshot` whose arrays live in one named
    shared-memory segment; pickles to metadata only."""

    __slots__ = (
        "name", "size", "b_bits", "leaf_set_size", "membership_epoch",
        "num_alive", "attach_seconds", "_segment", "_views", "_owner",
    )

    def __init__(self, name, size, b_bits, leaf_set_size,
                 membership_epoch, num_alive, segment=None, views=None,
                 owner=False):
        self.name = name
        self.size = size
        self.b_bits = b_bits
        self.leaf_set_size = leaf_set_size
        self.membership_epoch = membership_epoch
        self.num_alive = num_alive
        self.attach_seconds = 0.0
        self._segment = segment
        self._views = views
        self._owner = owner

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def publish(cls, snap: CompactSnapshot) -> "SharedCompactSnapshot":
        """Copy ``snap``'s arrays into a fresh segment owned by the
        caller (who must :meth:`unlink` when the fan-out is done)."""
        if _shared_memory is None:
            raise OSError("shared memory is not available on this platform")
        n = len(snap.hi)
        segment = _shared_memory.SharedMemory(create=True, size=max(1, 17 * n))
        views = _layout(segment.buf, n)
        hi, lo, alive = views
        hi[:] = snap.hi
        lo[:] = snap.lo
        alive[:] = snap.alive
        return cls(
            segment.name, n, snap.b_bits, snap.leaf_set_size,
            snap.membership_epoch, snap.num_alive,
            segment=segment, views=views, owner=True,
        )

    def unlink(self) -> None:
        """Destroy the segment (publisher only); idempotent, and safe
        when the OS already reclaimed it."""
        if not self._owner:
            return
        segment, self._segment, self._views = self._segment, None, None
        self._owner = False
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass

    # -- pickling: metadata only ---------------------------------------
    def __getstate__(self):
        return {
            "name": self.name,
            "size": self.size,
            "b_bits": self.b_bits,
            "leaf_set_size": self.leaf_set_size,
            "membership_epoch": self.membership_epoch,
            "num_alive": self.num_alive,
        }

    def __setstate__(self, state):
        for key, value in state.items():
            setattr(self, key, value)
        self.attach_seconds = 0.0
        self._segment = None
        self._views = None
        self._owner = False

    # -- lazy attach ----------------------------------------------------
    def _arrays(self):
        if self._views is None:
            cached = _ATTACHED.get(self.name)
            if cached is None:
                start = time.perf_counter()
                segment = _shared_memory.SharedMemory(name=self.name)
                views = _layout(segment.buf, self.size, writable=False)
                self.attach_seconds = time.perf_counter() - start
                cached = _ATTACHED[self.name] = (segment, views)
            self._segment, self._views = cached
        return self._views

    @property
    def hi(self) -> np.ndarray:
        return self._arrays()[0]

    @property
    def lo(self) -> np.ndarray:
        return self._arrays()[1]

    @property
    def alive(self) -> np.ndarray:
        return self._arrays()[2]

    @property
    def nbytes(self) -> int:
        """Segment bytes backing the shared arrays."""
        return 17 * self.size

    # -- snapshot protocol ---------------------------------------------
    def view(self) -> CompactSnapshot:
        """A plain :class:`CompactSnapshot` over the shared pages (no
        copy); arrays are read-only views."""
        hi, lo, alive = self._arrays()
        return CompactSnapshot(
            hi=hi, lo=lo, alive=alive,
            b_bits=self.b_bits,
            leaf_set_size=self.leaf_set_size,
            membership_epoch=self.membership_epoch,
            num_alive=self.num_alive,
        )

    def restore(self):
        """An independent mutable overlay (same contract as
        :meth:`CompactSnapshot.restore`): it reads the segment's id
        words in place, read-only, and copies only the alive flags.
        Workers stay attached for life; in the publishing process an
        overlay restored here must not be read after :meth:`unlink`,
        which unmaps the segment under it."""
        return self.view().restore()


def _layout(buf, n: int, writable: bool = True):
    """The segment layout: ``hi[0:8n] | lo[8n:16n] | alive[16n:17n]``."""
    hi = np.ndarray((n,), dtype=np.uint64, buffer=buf, offset=0)
    lo = np.ndarray((n,), dtype=np.uint64, buffer=buf, offset=8 * n)
    alive = np.ndarray((n,), dtype=bool, buffer=buf, offset=16 * n)
    if not writable:
        for arr in (hi, lo, alive):
            arr.setflags(write=False)
    return hi, lo, alive


def share_base(bases: dict) -> tuple[dict, list[SharedCompactSnapshot]]:
    """Wrap every :class:`CompactSnapshot` in ``bases`` as a published
    shared segment; other values pass through untouched.

    Returns the payload to hand to ``run_trials(shared=...)`` plus the
    published segments the caller must :meth:`unlink` in a ``finally``.
    Falls back to the plain snapshots (empty publish list) when shared
    memory is unavailable or the OS refuses a segment — sharding is an
    optimisation, never a correctness dependency.
    """
    if not shm_available():
        return bases, []
    shared: dict = {}
    published: list[SharedCompactSnapshot] = []
    try:
        for token, value in bases.items():
            if isinstance(value, CompactSnapshot):
                shm_snap = SharedCompactSnapshot.publish(value)
                published.append(shm_snap)
                shared[token] = shm_snap
            else:
                shared[token] = value
    except OSError:
        for shm_snap in published:
            shm_snap.unlink()
        return bases, []
    return shared, published
