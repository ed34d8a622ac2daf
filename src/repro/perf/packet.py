"""Vectorised packet plane over the compact overlay engine.

:func:`route_many` advances a whole batch of packets one hop per
iteration with NumPy kernels, making the same forwarding decision as
:class:`repro.pastry.PastryNode`'s rule read over the compact words
(``CompactOverlay.route``, a walk of the overlay's ``twin()``) for
every packet — a tested hop-for-hop contract against that scalar walk
and an object-engine build of the alive ids
(``tests/perf/test_packet.py``).

Per iteration, the active front splits into three vectorised branches
that mirror the scalar rule's three (``PastryNode.decision``'s class
key: none, a cell's class, the rare case's whole class) exactly:

* **leaf-covered** — a rank test: the key's insertion rank (resolved
  once per packet, with its root) against the node's ±half window;
  the window minimum by (ring distance, id) is then the alive id
  closest to the key (:func:`repro.analysis.idspace.closest_index_words`,
  also resolved once per packet), and a packet that moves on such a
  decision is settled on arrival;
* **prefix bucket** — the routing cell for (row, key digit) is the
  first alive id at or past the bucket lower bound
  (:func:`repro.pastry.bulk.bucket_bounds` semantics via
  ``clear_low_words`` + ``searchsorted_words``);
* **empty-cell fallback** — when the bucket is empty, the scalar
  rule's candidates (leaf members and populated cells sharing at least
  ``row`` digits with the key, strictly closer than the node) reduce to
  three ids per packet, read off the sorted ring in O(1) searches:
  ``up``, the first alive id at or after the key (a cell entry, since
  the key's empty bucket separates it from its predecessor); the
  first alive id of the node's bucket holding ``q``, the last alive id
  before the key (the largest entry at or below ``q``); and ``q`` if
  it is a leaf, else the leaf window's clockwise edge (the nearest
  leaf below the key).  The winner is their (distance, id) minimum
  among those that qualify.

Dead sources fail immediately (the scalar ``route`` raises instead —
batches must keep their row alignment); all other packets terminate
exactly where the scalar loop would, including the MAX_HOPS limit.

Everything here is a pure function of overlay state and inputs — no
ambient randomness; the latency model draws from a caller-supplied
Generator so experiment rows stay digest-identical across workers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.idspace import (
    clear_low_words,
    closest_index_words,
    less_words,
    ring_distance_words,
    searchsorted_words,
    shared_prefix_bits_words,
)
from repro.pastry.bulk import leaf_reach
from repro.util.ids import ID_BITS

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.compact import CompactOverlay

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

#: the branches a forwarding decision can take; with metrics attached a
#: front reports how many it made of each as
#: ``compact.route.decisions_<branch>``
_DECISIONS = ("covered", "prefix_cell", "empty_cell")


class BatchRouteResult:
    """Result of routing a batch of packets in lockstep.

    Per packet: ``hops[i]`` edges traversed, ``success[i]``
    responsibility reached (False for dead sources and hop-limit
    casualties, where the scalar ``route`` raises), and
    ``dest_pos[i]`` the *global* overlay position where the packet
    stopped.  ``path(i)`` reconstructs the full id path lazily from
    the per-iteration trail: one array of every packet's position per
    front iteration.
    """

    __slots__ = (
        "_overlay",
        "key_hi",
        "key_lo",
        "src_pos",
        "dest_pos",
        "hops",
        "success",
        "_trail",
    )

    def __init__(self, overlay, key_hi, key_lo, src_pos, dest_pos, hops,
                 success, trail):
        self._overlay = overlay
        self.key_hi = key_hi
        self.key_lo = key_lo
        self.src_pos = src_pos
        self.dest_pos = dest_pos
        self.hops = hops
        self.success = success
        self._trail = trail

    def path(self, i: int) -> list[int]:
        """The id path of packet ``i`` (source first, stop last).

        The trail repeats the final position once a packet settles, so
        the path is the prefix up to the first consecutive repeat —
        the same termination the scalar loop uses.
        """
        if not 0 <= i < len(self.src_pos):
            raise IndexError(f"packet index {i} out of range")
        positions: list[int] = []
        for arr in self._trail:
            g = int(arr[i])
            if positions and g == positions[-1]:
                break
            positions.append(g)
        hi = self._overlay.hi
        lo = self._overlay.lo
        return [(int(hi[g]) << 64) | int(lo[g]) for g in positions]


class TunnelBatchResult:
    """Result of routing a batch of stitched tunnel paths.

    ``leg_hops[t, j]`` is the hop count of tunnel ``t``'s ``j``-th leg
    (the last column is the exit leg to the destination key);
    ``hops[t]`` is their sum — junction nodes are shared between legs,
    so stitched underlying links are exactly additive.  ``success[t]``
    requires every leg to settle; ``dest_pos[t]`` is the final global
    position (the key root when successful).
    """

    __slots__ = ("leg_hops", "hops", "success", "dest_pos")

    def __init__(self, leg_hops, hops, success, dest_pos):
        self.leg_hops = leg_hops
        self.hops = hops
        self.success = success
        self.dest_pos = dest_pos


def _alive_ranks(overlay, positions) -> np.ndarray:
    """Alive rank (index into the alive view) of each global position,
    -1 where the node is dead."""
    rank = np.searchsorted(overlay._alive_arrays()[2], positions)
    rank[~overlay.alive[positions]] = -1
    return rank


def _roots(overlay, key_hi, key_lo) -> tuple[np.ndarray, np.ndarray]:
    """``(root, after)`` per key, both alive ranks: ``root`` is the id
    closest to the key — where every leaf-covered decision of a packet
    points, fixed for the packet's lifetime, and by the paper's
    definition the node of a tunnel hop — and ``after`` the key's
    insertion rank, the first alive id at or after it (mod n), which
    the leaf-cover test compares with the window.  With nobody alive
    there is no such id (-1): every source is dead too, so the front
    never reads them."""
    ahi, alo, _ = overlay._alive_arrays()
    if len(ahi) == 0:
        none = np.full(len(key_hi), -1, dtype=np.intp)
        return none, none
    return closest_index_words(ahi, alo, key_hi, key_lo)


def route_many(overlay: "CompactOverlay", src_pos, key_hi, key_lo) -> BatchRouteResult:
    """Route one key per packet from global positions ``src_pos``.

    Hop-for-hop identical to ``overlay.route`` for every packet whose
    source is alive; dead sources come back with ``success=False``,
    zero hops and ``dest_pos == src_pos`` (scalar ``route`` raises —
    a batch keeps row alignment instead, so sweeps over churned
    overlays need no pre-filtering).  Positions outside the overlay
    raise ``ValueError``.
    """
    src_pos = overlay._checked_positions(src_pos, "src_pos")
    key_hi = np.atleast_1d(np.asarray(key_hi, dtype=np.uint64))
    key_lo = np.atleast_1d(np.asarray(key_lo, dtype=np.uint64))
    if not (len(key_hi) == len(key_lo) == len(src_pos)):
        raise ValueError("src_pos and key words must have equal length")
    trail: list[np.ndarray] = []
    dest_pos, hops, success = _route_front(
        overlay, src_pos, _alive_ranks(overlay, src_pos),
        *_roots(overlay, key_hi, key_lo), key_hi, key_lo, trail,
    )
    return BatchRouteResult(
        overlay, key_hi, key_lo, src_pos, dest_pos, hops, success, trail
    )


def _route_front(overlay, src_pos, rank, root, after, key_hi, key_lo, trail):
    """Advance validated packets to termination; returns ``(dest_pos,
    hops, success)``.

    The caller has resolved the front once: ``rank`` is each source's
    alive rank (:func:`_alive_ranks`, -1 = dead, the packet fails where
    it stands), and ``root`` and ``after`` the alive ranks of the id
    closest to each key and of its insertion point (:func:`_roots`) —
    nothing is looked up again here.  ``trail`` collects every
    packet's position before the first iteration and after each one,
    or is None when no one will ask for paths."""
    num = len(src_pos)
    ahi, alo, idx = overlay._alive_arrays()
    reach = leaf_reach(len(ahi), overlay.leaf_set_size) if len(ahi) else 0

    dest = src_pos.copy()
    hops = np.zeros(num, dtype=np.int64)
    success = np.zeros(num, dtype=bool)
    tally = dict.fromkeys(_DECISIONS, 0)
    if trail is not None:
        trail.append(dest.copy())
    done = rank < 0
    # alive ranks, read only where the packet is still in flight
    cur = rank.copy()

    last = overlay.MAX_HOPS - 1
    for iteration in range(overlay.MAX_HOPS):
        act = np.flatnonzero(~done)
        if len(act) == 0:
            break
        at = cur[act]
        nxt, covered = _next_hops(
            overlay, ahi, alo, at, key_hi[act], key_lo[act], root[act],
            after[act], reach, tally,
        )
        stay = nxt == at
        go = ~stay
        moved = act[go]
        cur[moved] = nxt[go]
        dest[moved] = idx[nxt[go]]
        hops[moved] += 1
        # A covered decision lands on the key's closest alive id, whose
        # own window covers the key and elects itself: the packet is
        # settled on arrival.  The scalar loop needs one more iteration
        # to see that, so on its last one a mover is a hop-limit
        # casualty there and must be one here.
        settled = act[(stay | covered) if iteration < last else stay]
        done[settled] = True
        success[settled] = True
        if trail is not None:
            trail.append(dest.copy())
    # anything still active hit the hop limit: done, success stays False

    metrics = overlay._metrics
    if metrics is not None:
        metrics.counter("compact.route.packets").inc(num)
        for branch, decisions in tally.items():
            metrics.counter(f"compact.route.decisions_{branch}").inc(decisions)
    return dest, hops, success


def _next_hops(overlay, ahi, alo, cpos, kh, kl, root, after, reach, tally):
    """One forwarding decision per active packet (alive positions):
    ``(next position, decision was leaf-covered)``."""
    n = len(ahi)
    num = len(cpos)
    if n <= overlay.leaf_set_size:
        # the window is the whole ring
        tally["covered"] += num
        return root, np.ones(num, dtype=bool)

    # The window is the 2*half + 1 ranks from cpos - half clockwise, and
    # the key lies on its arc iff both ring neighbours of the key are in
    # it: the key's insertion rank is 1..2*half steps past the far
    # counter-clockwise edge, or is that edge and the key is its id.
    half = overlay.leaf_set_size // 2
    d = (after - cpos + half) % n
    covered = (d >= 1) & (d <= 2 * half)
    edge = np.flatnonzero(d == 0)
    if len(edge):
        at = after[edge]
        covered[edge] = (ahi[at] == kh[edge]) & (alo[at] == kl[edge])
    # Covered: the scalar rule takes the (distance, id) minimum over
    # the window.  The key lies on the arc between the window's far
    # edges and every alive id on that arc is a member, so the key's
    # two ring neighbours are members (or the key *is* the far
    # counter-clockwise edge, which then wins at distance zero) — and
    # the minimum over any set holding both is one of the two: `root`.
    nxt = root.copy()

    unc = np.flatnonzero(~covered)
    tally["covered"] += num - len(unc)
    if len(unc):
        # uncovered implies key != nid, so the shared prefix is < 128
        # bits and the target row's shift is non-negative
        at = cpos[unc]
        bits = shared_prefix_bits_words(ahi[at], alo[at], kh[unc], kl[unc])
        row = bits // overlay.b_bits
        shift = ID_BITS - overlay.b_bits * (row + 1)
        # cell entry = first alive id at/past the bucket lower bound,
        # provided it still shares the key's first row+1 digits
        lo_hi, lo_lo = clear_low_words(kh[unc], kl[unc], shift)
        pos = searchsorted_words(ahi, alo, lo_hi, lo_lo)
        probe = np.where(pos < n, pos, 0)
        p_hi, p_lo = clear_low_words(ahi[probe], alo[probe], shift)
        found = (pos < n) & (p_hi == lo_hi) & (p_lo == lo_lo)
        nxt[unc[found]] = pos[found]
        miss = np.flatnonzero(~found)
        tally["prefix_cell"] += len(unc) - len(miss)
        if len(miss):
            fb = unc[miss]
            tally["empty_cell"] += len(miss)
            nxt[fb] = _fallback_hops(
                ahi, alo, cpos[fb], kh[fb], kl[fb], row[miss], pos[miss],
                overlay.b_bits, reach,
            )
    return nxt, covered


def _fallback_hops(ahi, alo, cpos, kh, kl, row, pos, b_bits, reach):
    """Vectorised twin of the scalar empty-cell rule.

    The scalar rule takes the (distance, id) minimum over the known
    ids — leaf window and populated cells — that share at least ``row``
    digits with the key and are strictly closer than the node.  The
    nearest of them lies first clockwise or first counter-clockwise
    from the key among them, and the key's ``(row+1)``-digit bucket
    being empty pins both down.  ``pos`` is where that bucket's lower
    bound inserts into the ring; nobody alive sits between the bound
    and the key, so it is also the key's own insertion point.

    * ``up``, the first alive id at or after the key, is a cell entry
      (the smallest alive id of its bucket under the node): were it to
      share one digit more with its predecessor than with the node, the
      key between the two would share it too and land in ``up``'s
      bucket, which is empty.  Past ``up`` clockwise there is no need
      to look: an id farther that way is farther than ``up`` (or than
      the node, if ``up`` is the node) in that direction.
    * ``q``, the last alive id before the key, lies in the node's
      bucket ``(shared_digits(q, nid), q's next digit)``.  That bucket
      is contiguous, excludes the node and holds every alive id from
      its first one up to ``q``, so its first alive id is the nearest
      cell entry at or below ``q``.
    * The nearest leaf at or below ``q`` is ``q`` itself if it lies in
      the ±reach window, else the window's clockwise edge.

    Which of the three share ``row`` digits with the key is checked per
    packet; the node itself never qualifies.  With ``q`` the node its
    bucket degenerates to the node (the mask clears nothing) and the
    branch drops out.  A packet with no qualifier stays put — the scalar
    rule terminates there.
    """
    n = len(ahi)
    nid_hi = ahi[cpos]
    nid_lo = alo[cpos]
    q = (pos - 1) % n
    q_hi = ahi[q]
    q_lo = alo[q]
    q_row = shared_prefix_bits_words(q_hi, q_lo, nid_hi, nid_lo) // b_bits
    b_hi, b_lo = clear_low_words(q_hi, q_lo, ID_BITS - b_bits * (q_row + 1))
    dq = (q - cpos) % n
    leaf = np.where(np.minimum(dq, n - dq) <= reach, q, (cpos + reach) % n)
    cand = np.stack((pos % n, searchsorted_words(ahi, alo, b_hi, b_lo), leaf))

    c_hi = ahi[cand]
    c_lo = alo[cand]
    dh, dl = ring_distance_words(c_hi, c_lo, kh, kl)
    own_dh, own_dl = ring_distance_words(nid_hi, nid_lo, kh, kl)
    qual = (
        (cand != cpos)
        & (shared_prefix_bits_words(c_hi, c_lo, kh, kl) >= b_bits * row)
        & less_words(dh, dl, own_dh, own_dl)
    )
    # (distance, id) minimum over the qualifiers, ids ascending with
    # ring position; the node starts at a sentinel distance (real ones
    # never exceed 2^127), so any qualifier displaces it
    best = cpos
    best_dh = best_dl = np.full(len(cpos), _U64_MAX)
    for c, ok, c_dh, c_dl in zip(cand, qual, dh, dl):
        better = ok & ((c_dh < best_dh) | (c_dh == best_dh) & (
            (c_dl < best_dl) | (c_dl == best_dl) & (c < best)
        ))
        best = np.where(better, c, best)
        best_dh = np.where(better, c_dh, best_dh)
        best_dl = np.where(better, c_dl, best_dl)
    return best


def route_tunnels(overlay: "CompactOverlay", src_pos, hop_key_hi, hop_key_lo,
                  dest_key_hi, dest_key_lo) -> TunnelBatchResult:
    """Build one TAP tunnel per packet and route the exit leg, batched.

    ``hop_key_hi``/``hop_key_lo`` are (T, L) word arrays — one random
    relay key per tunnel hop; leg ``j`` of a tunnel routes from the
    previous junction to hop key ``j``'s root, and the final leg routes
    to the destination key.  Stitching drops the duplicated junction
    node, so total underlying hops are the per-leg sums.

    A tunnel fails as soon as any leg fails; later legs for that
    packet keep routing from the last good junction (deterministic,
    cheap, and masked out of every statistic by ``success``).

    The legs do not wait for each other: a hop's node is by definition
    the alive id closest to its hop key, so one resolution of all
    ``T * (L + 1)`` keys (a single ``closest_index_words`` call) gives
    both every leg's ``root`` and, one block earlier, the junction the
    next leg starts from — handed to the front as an alive rank, not
    looked up a second time — and all legs route as one front.  Each
    leg's true end is then checked against the junction the next leg
    was started from, and only mis-started legs — behind a dead source
    or a hop-limit casualty — get a fresh rank and are routed again.
    A leg is a pure function of (source, key), so this equals routing
    the legs one after the other on every row.
    """
    src_pos = overlay._checked_positions(src_pos, "src_pos")
    hop_key_hi = np.asarray(hop_key_hi, dtype=np.uint64)
    hop_key_lo = np.asarray(hop_key_lo, dtype=np.uint64)
    dest_key_hi = np.atleast_1d(np.asarray(dest_key_hi, dtype=np.uint64))
    dest_key_lo = np.atleast_1d(np.asarray(dest_key_lo, dtype=np.uint64))
    if hop_key_hi.ndim != 2 or hop_key_hi.shape != hop_key_lo.shape:
        raise ValueError(
            "hop key words must be two equal-shape (T, L) arrays, got "
            f"{hop_key_hi.shape} and {hop_key_lo.shape}"
        )
    num, tunnel_len = hop_key_hi.shape
    if not (len(src_pos) == len(dest_key_hi) == len(dest_key_lo) == num):
        raise ValueError(
            f"src_pos and destination key words must have one entry for "
            f"each of the {num} tunnels, got {len(src_pos)}, "
            f"{len(dest_key_hi)} and {len(dest_key_lo)}"
        )

    # leg-major front: leg j of every tunnel is the block [j*T, (j+1)*T)
    inner = tunnel_len * num
    key_hi = np.concatenate((hop_key_hi.T.ravel(), dest_key_hi))
    key_lo = np.concatenate((hop_key_lo.T.ravel(), dest_key_lo))
    idx = overlay._alive_arrays()[2]
    root, after = _roots(overlay, key_hi, key_lo)
    # leg j >= 1 starts at the root of hop key j-1: the block before it
    rank = np.concatenate((_alive_ranks(overlay, src_pos), root[:inner]))
    start = np.concatenate((
        src_pos,
        # nobody alive: every leg fails where its tunnel stands
        idx[root[:inner]] if len(idx) else np.tile(src_pos, tunnel_len),
    ))
    dest, hops, success = _route_front(
        overlay, start, rank, root, after, key_hi, key_lo, None,
    )
    # a failed leg leaves its tunnel at the leg's own source
    end = np.where(success, dest, start)
    rerouted = 0
    # leg 0 starts right, so round r makes leg r's start (and end) final
    for _ in range(tunnel_len):
        wrong = num + np.flatnonzero(end[:inner] != start[num:])
        if len(wrong) == 0:
            break
        rerouted += len(wrong)
        again = end[wrong - num]
        start[wrong] = again
        dest, hops[wrong], success[wrong] = _route_front(
            overlay, again, _alive_ranks(overlay, again),
            root[wrong], after[wrong], key_hi[wrong], key_lo[wrong], None,
        )
        end[wrong] = np.where(success[wrong], dest, again)
    if overlay._metrics is not None:
        overlay._metrics.counter("compact.route.legs_rerouted").inc(rerouted)

    leg_hops = np.ascontiguousarray(hops.reshape(tunnel_len + 1, num).T)
    return TunnelBatchResult(
        leg_hops,
        leg_hops.sum(axis=1),
        success.reshape(tunnel_len + 1, num).all(axis=0),
        end[inner:],
    )


def latency_sums(rng: np.random.Generator, hops, min_latency_s: float,
                 max_latency_s: float) -> np.ndarray:
    """Per-packet end-to-end latency: sum of per-hop U[min, max] draws.

    One flat draw of ``hops.sum()`` link latencies on the caller's
    seed stream, folded per packet with ``np.add.reduceat`` — the
    batched twin of the fig6 per-leg loop.  Zero-hop packets cost 0 s.

    Bounds must be finite with ``0 <= min_latency_s <= max_latency_s``
    and hop counts integral and non-negative; anything else raises
    ``ValueError`` before a single draw, leaving ``rng`` where it was.
    """
    if not (math.isfinite(min_latency_s) and math.isfinite(max_latency_s)
            and 0.0 <= min_latency_s <= max_latency_s):
        raise ValueError(
            "latency bounds must be finite with 0 <= min_latency_s <= "
            f"max_latency_s, got {min_latency_s!r} and {max_latency_s!r}"
        )
    raw = np.asarray(hops)
    if (raw.dtype.kind not in "iuf" or not np.isfinite(raw).all()
            or (raw != np.trunc(raw)).any()):
        raise ValueError("hop counts must be integers")
    hops = raw.astype(np.int64)
    if (hops < 0).any():
        raise ValueError("negative hop counts")
    out = np.zeros(len(hops), dtype=np.float64)
    total = int(hops.sum())
    if total:
        draws = rng.uniform(min_latency_s, max_latency_s, size=total)
        nz = hops > 0
        out[nz] = np.add.reduceat(draws, (np.cumsum(hops) - hops)[nz])
    return out
