"""Compact array-backed overlay engine for 10^5–10^6-node simulation.

The object engine (:class:`repro.pastry.PastryNetwork`) keeps its
sorted alive ids as a Python list of Python ints and builds a
``PastryNode`` (its memoised decisions) on each node's first decision,
which caps practical overlay sizes around 10^4.  But the whole
canonical overlay is a *derived view* of
one thing: the sorted alive id set.  Leaf sets are ±reach index
windows in sorted order and routing cells are smallest-id
prefix-bucket slices, exactly what the object engine reads (see
:mod:`repro.pastry.bulk`).  This module therefore keeps only:

* the id population as aligned ``(hi, lo)`` uint64 word arrays, sorted
  numerically (128-bit ids don't fit a NumPy dtype; the two-word
  kernels live in :mod:`repro.analysis.idspace`);
* an aligned boolean ``alive`` array plus a ``membership_epoch``
  counter (the same epoch contract the object engine's caches use);

and derives everything else on demand: replica sets and the packet
plane's routes via the vectorised 128-bit kernels, and scalar routes
through :meth:`CompactOverlay.twin`.  Bootstrap at N=10^5 is an array
sort; fail/revive is a flag write; join is an array merge.

Equivalence contract (pinned by ``tests/perf/test_compact.py``):

1. **Bootstrap**: the rows of every node of a compact overlay's twin
   equal byte-for-byte those of ``PastryNetwork.build`` on the same ids.
2. **Churn is canonical maintenance**: after any fail/revive/join
   sequence the twin's rows equal a *fresh* ``PastryNetwork.build``
   over the current alive set — the state the object engine keeps too.
3. **Observable equality**: sorted alive ids, replica sets and routes
   match the object engine event for event under the strict auditor.

The object-engine twin of a compact overlay (:meth:`CompactOverlay.twin`)
is a ``PastryNetwork`` reading the alive id words in place: no copy, no
forwarding rule of this module's own, and a node built only where a
route decides, so a scalar route on a 10^6-node overlay costs its hops.
:class:`CompactSnapshot` is the frozen capture every trial of a
fan-out restores; runners cache it through ``base_snapshot``, and
fork workers of ``run_trials`` inherit that cache.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.idspace import (
    _WORD_BITS,
    argsort_words,
    merge_insert_positions,
    pack_ids,
    replica_table_words,
    searchsorted_words,
    unpack_words,
)
from repro.pastry.constants import DEFAULT_B_BITS, DEFAULT_LEAF_SET_SIZE
from repro.pastry.network import PastryNetwork, RoutingError
from repro.util.ids import random_id
from repro.util.rng import SeedSequenceFactory

_U64_MAX = np.iinfo(np.uint64).max


class _SortedWords(Sequence):
    """Ascending 128-bit ids read off aligned ``(hi, lo)`` word arrays.

    A read-only sequence: ``len``, an int index (negative too) and a
    slice (a fresh list) — what ``bisect``, ``leaf_window`` and
    ``closest_in_sorted`` read — with no copy of the words into Python
    ints, which at 10^6 ids would cost more than the route.
    """

    __slots__ = ("_hi", "_lo")

    def __init__(self, hi: np.ndarray, lo: np.ndarray):
        self._hi = hi
        self._lo = lo

    def __len__(self) -> int:
        return len(self._hi)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return unpack_words(self._hi[index], self._lo[index])
        return (self._hi.item(index) << _WORD_BITS) | self._lo.item(index)


class CompactOverlay:
    """A whole Pastry ring as sorted word arrays plus an alive mask."""

    #: same routing safety valve as :class:`PastryNetwork`
    MAX_HOPS = 256

    def __init__(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        alive: np.ndarray,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
        membership_epoch: int = 0,
    ):
        if leaf_set_size < 2 or leaf_set_size % 2 != 0:
            raise ValueError("leaf-set capacity must be an even number >= 2")
        #: aligned word arrays, numerically ascending, duplicate-free
        self.hi = hi
        self.lo = lo
        #: aligned liveness flags; positions never move on fail/revive
        self.alive = alive
        self.b_bits = b_bits
        self.leaf_set_size = leaf_set_size
        #: bumped on every alive-set change (same contract as the
        #: object engine); keys the derived alive-view cache
        self.membership_epoch = membership_epoch
        self._view_epoch = -1
        self._view: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._count_epoch = -1
        self._alive_count = 0
        #: named reusable scratch buffers (chunked packet plane); grown
        #: geometrically, never shrunk, accounted by scratch_nbytes
        self._scratch: dict[str, np.ndarray] = {}
        #: optional MetricsRegistry; hot paths pay one None check
        self._metrics = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def instrument(self, metrics) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` (None detaches).

        Membership changes then maintain ``compact.*`` counters and
        gauges: one counter bump plus an alive-fraction gauge per
        membership *event* (a whole vectorised fail/join batch), so
        the cost is O(alive-scan) per churn round, not per node —
        the sampling discipline that keeps 10^5-node telemetry within
        the <5% overhead gate.  Detached overlays pay a single None
        check.  The attachment is runtime-only: snapshots never carry
        it, so pickled shards stay slim.
        """
        self._metrics = metrics
        if metrics is not None:
            self._note_membership()

    def _note_membership(self, counter: str | None = None, nodes: int = 0) -> None:
        metrics = self._metrics
        if counter is not None:
            metrics.counter(counter).inc()
            metrics.counter(counter + "_nodes").inc(nodes)
        metrics.gauge("compact.membership_epoch").set(self.membership_epoch)
        metrics.gauge("compact.alive_fraction").set(
            self.num_alive / self.size if self.size else 0.0
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ids(
        cls,
        node_ids,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> "CompactOverlay":
        """Overlay over the given 128-bit ids (any iterable of ints)."""
        ids = sorted({int(v) for v in node_ids})
        hi, lo = pack_ids(ids)
        return cls(hi, lo, np.ones(len(ids), dtype=bool), b_bits, leaf_set_size)

    @classmethod
    def bootstrap(
        cls,
        num_nodes: int,
        seed: int = 0,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> "CompactOverlay":
        """The *same* id population as ``TapSystem.bootstrap(n, seed)``.

        Draws from the identical ``"node-ids"`` stream, so a compact
        overlay and an object system bootstrapped with one seed hold
        the same ring — the basis of the equivalence tests.
        """
        id_rng = SeedSequenceFactory(seed).pyrandom("node-ids")
        ids: set[int] = set()
        while len(ids) < num_nodes:
            ids.add(random_id(id_rng))
        return cls.from_ids(ids, b_bits, leaf_set_size)

    @classmethod
    def random(
        cls,
        num_nodes: int,
        seed: int = 0,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> "CompactOverlay":
        """Fully vectorised uniform bootstrap for 10^5–10^6 scale.

        Unlike :meth:`bootstrap` the ids come from a NumPy stream (the
        Python-rng draw loop would dominate at this scale), so the
        population does not match an object-engine system — use it for
        scale runs, :meth:`bootstrap`/:meth:`from_ids` for equivalence.
        Duplicate pairs are redrawn in place, preserving draw order for
        the survivors (same policy as ``IdSpaceModel.draw_unique_ids``).
        """
        rng = SeedSequenceFactory(seed).numpy("compact-ids")
        hi = rng.integers(0, _U64_MAX, size=num_nodes, dtype=np.uint64)
        lo = rng.integers(0, _U64_MAX, size=num_nodes, dtype=np.uint64)
        while True:
            order, shi, slo, dup_sorted = argsort_words(hi, lo)
            if not dup_sorted.any():
                break
            dup = order[dup_sorted]
            hi[dup] = rng.integers(0, _U64_MAX, size=len(dup), dtype=np.uint64)
            lo[dup] = rng.integers(0, _U64_MAX, size=len(dup), dtype=np.uint64)
        return cls(shi, slo, np.ones(num_nodes, dtype=bool), b_bits, leaf_set_size)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total tracked positions, alive and dead."""
        return len(self.hi)

    @property
    def num_alive(self) -> int:
        """Alive population, cached per membership epoch.

        The telemetry path reads this on every membership event and
        every round row; caching turns repeat reads within an epoch
        into attribute lookups instead of 10^5-element mask sums.
        """
        if self._count_epoch != self.membership_epoch:
            self._alive_count = int(self.alive.sum())
            self._count_epoch = self.membership_epoch
        return self._alive_count

    def _alive_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hi, lo, global positions) of the alive set, epoch-cached."""
        if self._view_epoch != self.membership_epoch:
            alive = self.alive
            self._view = (self.hi[alive], self.lo[alive], np.flatnonzero(alive))
            self._view_epoch = self.membership_epoch
        return self._view

    def alive_positions(self) -> np.ndarray:
        """Ascending *global* positions of the alive set, epoch-cached.

        The public accessor scale trials use instead of re-running
        ``np.flatnonzero(overlay.alive)`` per round — at 10^6 nodes
        that is a fresh 8 MB temporary per call; this returns the same
        values from the derived-view cache.  Callers must treat the
        array as read-only (it backs the routing view of this epoch).
        """
        return self._alive_arrays()[2]

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the canonical arrays (id words + alive).

        17 bytes per tracked node: the whole overlay state, measured
        rather than guessed — at N=10^6 this is ~17 MB, which is why
        the compact engine reaches populations the object engine's
        per-node containers cannot.  An overlay restored from a
        :class:`CompactSnapshot` shares the snapshot's id words until
        it joins, so of these bytes it owns only the alive flags.
        """
        return int(self.hi.nbytes) + int(self.lo.nbytes) + int(self.alive.nbytes)

    @property
    def scratch_nbytes(self) -> int:
        """Bytes held by derived caches and reusable scratch buffers.

        Covers the epoch-keyed alive view (hi/lo/positions of the
        alive set) plus every named buffer the chunked packet plane
        has parked on this overlay.  ``nbytes + scratch_nbytes`` is
        the engine's whole steady-state footprint; per-call
        temporaries are bounded by the routing chunk size on top.
        """
        total = 0
        if self._view is not None:
            total += sum(int(arr.nbytes) for arr in self._view)
        total += sum(int(arr.nbytes) for arr in self._scratch.values())
        return total

    def _scratch_buf(self, name: str, size: int, dtype) -> np.ndarray:
        """A reusable scratch array of at least ``size`` elements.

        Grown geometrically and kept for the overlay's lifetime, so
        successive chunks (and successive rounds) stream through the
        same allocation instead of churning ``size``-element
        temporaries.  Contents are unspecified — callers initialise
        what they read.
        """
        buf = self._scratch.get(name)
        if buf is None or buf.dtype != np.dtype(dtype) or len(buf) < size:
            grow = 0 if buf is None or buf.dtype != np.dtype(dtype) else 2 * len(buf)
            buf = np.empty(max(size, grow), dtype=dtype)
            self._scratch[name] = buf
        return buf[:size]

    def alive_ids(self) -> list[int]:
        """Ascending ids of alive nodes (fresh list)."""
        ahi, alo, _ = self._alive_arrays()
        return unpack_words(ahi, alo)

    def positions_of(self, node_ids) -> np.ndarray:
        """Global array positions of the given ids; KeyError if absent."""
        values = [int(v) for v in node_ids]
        khi, klo = pack_ids(values)
        pos = searchsorted_words(self.hi, self.lo, khi, klo)
        probe = np.where(pos < self.size, pos, 0)
        found = (pos < self.size) & (self.hi[probe] == khi) & (self.lo[probe] == klo)
        if not found.all():
            missing = values[int(np.flatnonzero(~found)[0])]
            raise KeyError(f"unknown node id {missing:#x}")
        return pos

    def __contains__(self, node_id: int) -> bool:
        """Is this id tracked (alive or tombstoned)?"""
        try:
            self.positions_of([node_id])
        except KeyError:
            return False
        return True

    def is_alive(self, node_id: int) -> bool:
        try:
            pos = self.positions_of([node_id])
        except KeyError:
            return False
        return bool(self.alive[pos[0]])

    def fail(self, node_ids) -> None:
        """Crash nodes (by id); dead positions keep their array slot."""
        self.fail_positions(self.positions_of(node_ids))

    def revive(self, node_ids) -> None:
        self.revive_positions(self.positions_of(node_ids))

    def _shift_alive_count(self, delta: int) -> None:
        """Carry the alive-count cache across an epoch bump (O(delta)
        bookkeeping instead of a fresh 10^5-element mask sum); call
        immediately *before* ``membership_epoch += 1``."""
        if self._count_epoch == self.membership_epoch:
            self._alive_count += delta
            self._count_epoch = self.membership_epoch + 1

    def _checked_positions(self, positions, name: str) -> np.ndarray:
        """Global positions arriving from outside, as an intp array.

        The one gate of the membership side (``fail_positions``,
        ``revive_positions``) and the packet plane (``src_pos``): a
        negative position would wrap NumPy-style and address some other
        node, a fractional one would truncate onto a neighbour — both
        raise ``ValueError`` naming the first offending row, before
        anything is written.
        """
        raw = np.asarray(positions)
        # an empty list arrives as float64; there is no row to reject
        if raw.size and not np.issubdtype(raw.dtype, np.integer):
            raise ValueError(
                f"{name}[0] = {raw.flat[0]!r}: positions must be integers, "
                f"got dtype {raw.dtype}"
            )
        checked = raw.astype(np.intp, copy=False)
        bad = np.flatnonzero((checked < 0) | (checked >= self.size))
        if len(bad):
            row = int(bad[0])
            raise ValueError(
                f"{name}[{row}] = {int(checked.flat[row])} is not a position "
                f"of this {self.size}-node overlay"
            )
        return checked

    def fail_positions(self, positions) -> None:
        """Crash nodes by global array position (the scale-trial path)."""
        positions = self._checked_positions(positions, "positions")
        if self.alive[positions].any():
            self._shift_alive_count(
                -int(self.alive[np.unique(positions)].sum())
            )
            self.alive[positions] = False
            self.membership_epoch += 1
            if self._metrics is not None:
                self._note_membership("compact.fail_events", len(positions))

    def revive_positions(self, positions) -> None:
        positions = self._checked_positions(positions, "positions")
        if not self.alive[positions].all():
            self._shift_alive_count(
                int((~self.alive[np.unique(positions)]).sum())
            )
            self.alive[positions] = True
            self.membership_epoch += 1
            if self._metrics is not None:
                self._note_membership("compact.revive_events", len(positions))

    def join(self, new_ids) -> None:
        """Admit new nodes, merging them into the sorted arrays.

        Joining an id that is present and alive raises (mirroring the
        object engine); joining a failed id revives it.  Because the
        compact state is canonical-by-construction, a join here equals
        the object engine's incremental join *plus* the maintenance
        convergence that follows it.
        """
        values = sorted({int(v) for v in new_ids})
        if not values:
            return
        nhi, nlo = pack_ids(values)
        pos = searchsorted_words(self.hi, self.lo, nhi, nlo)
        probe = np.where(pos < self.size, pos, 0)
        present = (pos < self.size) & (self.hi[probe] == nhi) & (self.lo[probe] == nlo)
        occupied = present & self.alive[probe]
        if occupied.any():
            taken = values[int(np.flatnonzero(occupied)[0])]
            raise ValueError(f"node {taken:#x} already in the overlay")
        # revive tombstoned ids in place, insert genuinely new ones;
        # every joined id ends alive and none was alive before (the
        # occupied check above raised otherwise)
        self._shift_alive_count(len(values))
        if present.any():
            self.alive[probe[present]] = True
        fresh = ~present
        if fresh.any():
            # one merge plan scatters all three aligned arrays (a
            # np.insert per array would redo the index computation and
            # a full copy each time — 3x the work at 10^6 nodes)
            target, keep = merge_insert_positions(pos[fresh], self.size)
            merged_hi = np.empty(len(keep), dtype=np.uint64)
            merged_lo = np.empty(len(keep), dtype=np.uint64)
            merged_alive = np.empty(len(keep), dtype=bool)
            merged_hi[target] = nhi[fresh]
            merged_lo[target] = nlo[fresh]
            merged_alive[target] = True
            merged_hi[keep] = self.hi
            merged_lo[keep] = self.lo
            merged_alive[keep] = self.alive
            self.hi = merged_hi
            self.lo = merged_lo
            self.alive = merged_alive
        self.membership_epoch += 1
        if self._metrics is not None:
            self._note_membership("compact.join_events", len(values))

    # ------------------------------------------------------------------
    # replica-set queries (vectorised, exact 128-bit)
    # ------------------------------------------------------------------
    def replica_positions(self, key_hi, key_lo, k: int) -> np.ndarray:
        """(M, k) *global* positions of each key's replica set.

        Closest-first, ties toward the smaller id — the
        :meth:`ReplicatedStore.replica_set` ranking.  ``k`` is clamped
        to the alive population like ``replica_candidates``.  Global
        positions are stable across fail/revive (not across join).
        """
        ahi, alo, idx = self._alive_arrays()
        if len(ahi) == 0:
            raise RoutingError("no alive nodes")
        table = replica_table_words(ahi, alo, key_hi, key_lo, min(k, len(ahi)))
        return idx[table]

    def replica_ids(self, keys, k: int) -> list[list[int]]:
        """Replica sets as id lists, for cross-validation against the
        object engine; use :meth:`replica_positions` in bulk paths."""
        khi, klo = pack_ids(int(key) for key in keys)
        table = self.replica_positions(khi, klo, k)
        return [
            unpack_words(self.hi[row], self.lo[row])
            for row in table
        ]

    def closest_alive(self, key: int) -> int:
        """Id of the alive node numerically closest to ``key``."""
        return self.replica_ids([key], 1)[0][0]

    def alive_mask(self, member_hi: np.ndarray, member_lo: np.ndarray) -> np.ndarray:
        """Elementwise: is this id currently tracked *and* alive?

        Works on any shape of id words — the survivor bookkeeping of
        the scale trials, robust across joins because it re-resolves
        positions from id content.
        """
        flat_hi = np.ravel(member_hi)
        flat_lo = np.ravel(member_lo)
        pos = searchsorted_words(self.hi, self.lo, flat_hi, flat_lo)
        probe = np.where(pos < self.size, pos, 0)
        found = (pos < self.size) & (self.hi[probe] == flat_hi) & (self.lo[probe] == flat_lo)
        out = found & self.alive[probe]
        return out.reshape(np.shape(member_hi))

    # ------------------------------------------------------------------
    # scalar routing (the object engine's rule over the alive words)
    # ------------------------------------------------------------------
    def twin(self) -> PastryNetwork:
        """The object engine over this overlay's alive ids, read in place.

        Its sorted alive ids are a read-only view of the epoch's alive
        words (:class:`_SortedWords`), so building it copies nothing and
        it decides with :class:`repro.pastry.PastryNode`'s rule — the one
        forwarding rule of the repository.  It is frozen at the epoch of
        the call and routes under this overlay's :attr:`MAX_HOPS`;
        ``fail`` and ``join`` on it raise, since the view takes no
        writes.
        """
        ahi, alo, _ = self._alive_arrays()
        net = PastryNetwork.over_sorted(
            _SortedWords(ahi, alo), self.b_bits, self.leaf_set_size
        )
        net.MAX_HOPS = self.MAX_HOPS
        return net

    def route(self, src_id: int, key: int) -> tuple[int, ...]:
        """The path of ``key`` from ``src_id``, a cold walk of a fresh
        :meth:`twin` (no memo outlives the call).

        Identical decisions to ``PastryNetwork.route`` on an object
        overlay with the same alive ids, however each reached them, and
        the same :class:`RoutingError` on a dead source or a walk past
        :attr:`MAX_HOPS`.
        """
        net = self.twin()
        try:
            return net.route(src_id, key)
        finally:
            # the walk's nodes point back at the twin and its route memo
            # at them: unlink both so reference counting frees the twin
            # instead of leaving a cycle to the collector
            net._nodes.clear()
            net._route_cache.clear()

    # ------------------------------------------------------------------
    # batched packet plane (repro.perf.packet)
    # ------------------------------------------------------------------
    def route_many(self, src_pos, key_hi, key_lo, *,
                   chunk_size: int | None = None):
        """Vectorised lockstep routing of a whole packet batch.

        ``src_pos`` are *global* positions; keys are (hi, lo) word
        arrays.  Hop-for-hop identical to :meth:`route` per packet
        (dead sources fail in-row instead of raising); see
        :mod:`repro.perf.packet`.  ``chunk_size`` streams the batch
        through bounded scratch windows (results are digest-identical
        for any value).
        """
        from repro.perf.packet import route_many

        return route_many(self, src_pos, key_hi, key_lo, chunk_size=chunk_size)

    def route_tunnels(self, src_pos, hop_key_hi, hop_key_lo,
                      dest_key_hi, dest_key_lo, *,
                      chunk_size: int | None = None):
        """Batched TAP tunnel construction + exit-leg routing; see
        :func:`repro.perf.packet.route_tunnels`."""
        from repro.perf.packet import route_tunnels

        return route_tunnels(
            self, src_pos, hop_key_hi, hop_key_lo,
            dest_key_hi, dest_key_lo,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> "CompactSnapshot":
        """Immutable capture, the base a trial restores (see
        ``base_snapshot``)."""
        return CompactSnapshot.capture(self)


def _read_only(words: np.ndarray) -> np.ndarray:
    view = words.view()
    view.setflags(write=False)
    return view


class CompactSnapshot:
    """Frozen copy of a :class:`CompactOverlay`; many restores read
    its id words, and fork workers inherit it without a copy."""

    __slots__ = ("hi", "lo", "alive", "b_bits", "leaf_set_size",
                 "membership_epoch", "num_alive")

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def nbytes(self) -> int:
        """Resident bytes of the captured arrays (id words + alive)."""
        return int(self.hi.nbytes) + int(self.lo.nbytes) + int(self.alive.nbytes)

    @classmethod
    def capture(cls, overlay: CompactOverlay) -> "CompactSnapshot":
        hi = overlay.hi.copy()
        lo = overlay.lo.copy()
        alive = overlay.alive.copy()
        for arr in (hi, lo, alive):
            arr.setflags(write=False)
        return cls(
            hi=hi,
            lo=lo,
            alive=alive,
            b_bits=overlay.b_bits,
            leaf_set_size=overlay.leaf_set_size,
            membership_epoch=overlay.membership_epoch,
            num_alive=overlay.num_alive,
        )

    def restore(self) -> CompactOverlay:
        """An independent mutable overlay resuming from this capture.

        Only ``alive`` is copied: the overlay shares this snapshot's id
        words, as read-only views, because nothing writes them in
        place — fail and revive write ``alive``, and join replaces all
        three arrays.  An in-place write to a restored overlay's
        ``hi``/``lo`` therefore raises instead of reaching the capture.
        """
        overlay = CompactOverlay(
            _read_only(self.hi),
            _read_only(self.lo),
            self.alive.copy(),
            self.b_bits,
            self.leaf_set_size,
            self.membership_epoch,
        )
        # seed the alive-count cache from capture time, so the first
        # num_alive read (the telemetry attach, the round rows) costs
        # an attribute lookup instead of a full mask sum
        overlay._alive_count = self.num_alive
        overlay._count_epoch = self.membership_epoch
        return overlay
