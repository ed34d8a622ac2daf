"""Exact 128-bit two-word kernels of the id ring, and the figures' id draw.

A 128-bit id is carried as an aligned pair of uint64 arrays
``(hi, lo)``.  The kernels (:func:`pack_ids`, :func:`argsort_words`,
:func:`searchsorted_words`, :func:`ring_distance_words`,
:func:`replica_table_words`, :func:`closest_index_words`, ...) are
bit-for-bit with :mod:`repro.util.ids`: ring distance, closest-first,
ties toward the smaller id.  The compact overlay engine
(:mod:`repro.perf.compact`) and its packet plane run them, and so do
the figure sweeps, on a compact overlay of 64-bit ids as high words
(:mod:`repro.experiments.ring`).  The test-suite cross-validates them
against the object-level :class:`repro.past.ReplicatedStore` on the
same inputs.

:func:`draw_unique_ids` is the figures' uniform id and key draw.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _duplicate_positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean mask of every position holding a repeat of an earlier draw,
    with the sort that found them: ``(dup, order, values[order])``.

    The *first* occurrence of each value (in array order) is kept
    unmarked; over a zero low word :func:`argsort_words` is the stable
    argsort, which makes "first" well-defined within each run of equal
    values.
    """
    order, ranked, _, tie = argsort_words(values, np.zeros_like(values))
    dup = np.empty(len(values), dtype=bool)
    dup[order] = tie
    return dup, order, ranked


def _draw_unique(count: int, rng: np.random.Generator):
    """:func:`draw_unique_ids` plus the ascending sort of the draw it
    returns: ``(ids, order, ids[order])``."""
    out = rng.integers(0, np.iinfo(np.uint64).max, size=count, dtype=np.uint64)
    while True:
        dup, order, ranked = _duplicate_positions(out)
        if not dup.any():
            return out, order, ranked
        out[dup] = rng.integers(
            0, np.iinfo(np.uint64).max, size=int(dup.sum()), dtype=np.uint64
        )


def draw_unique_ids(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform duplicate-free uint64 ids, in draw order.

    The collision-retry path (probability ~2^-37 at paper scale)
    redraws *only* the duplicate positions, keeping the first
    occurrence of each value where it was drawn.  An earlier version
    returned ``np.unique(...)[:count]`` — a sorted, smallest-first
    prefix that biased retry-path ids low and destroyed draw order.
    """
    return _draw_unique(count, rng)[0]


# ----------------------------------------------------------------------
# exact 128-bit two-word kernels
#
# A 128-bit id is carried as an aligned pair of uint64 arrays
# ``(hi, lo)`` with ``id == (hi << 64) | lo``; lexicographic order on
# the pair is numeric order on the id.  All kernels below are exact —
# no scaling, no truncation — so the compact overlay engine built on
# them agrees bit-for-bit with repro.util.ids on the real ring.
# ----------------------------------------------------------------------

def pack_ids(ids) -> tuple[np.ndarray, np.ndarray]:
    """Split an iterable of 128-bit Python ints into (hi, lo) uint64 arrays."""
    values = list(ids)
    hi = np.fromiter(
        ((int(v) >> _WORD_BITS) & _WORD_MASK for v in values),
        dtype=np.uint64, count=len(values),
    )
    lo = np.fromiter(
        (int(v) & _WORD_MASK for v in values),
        dtype=np.uint64, count=len(values),
    )
    return hi, lo


def argsort_words(
    hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``np.lexsort((lo, hi))``, by NumPy's fast default sort of ``hi``.

    Returns ``(order, hi[order], lo[order], tie)`` with ``tie`` marking
    each sorted id equal (both words) to its predecessor.  When no two
    high words are equal they alone fix the one ascending order, which
    the default sort finds; only a high-word tie falls back to the
    lexsort.
    """
    order = np.argsort(hi)
    shi = hi[order]
    tie = np.zeros(len(hi), dtype=bool)
    tie[1:] = shi[1:] == shi[:-1]
    if tie.any():
        order = np.lexsort((lo, hi))
    slo = lo[order]
    tie[1:] &= slo[1:] == slo[:-1]
    return order, shi, slo, tie


def unpack_words(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Inverse of :func:`pack_ids`: (hi, lo) arrays back to Python ints."""
    return [(int(h) << _WORD_BITS) | int(l) for h, l in zip(hi.tolist(), lo.tolist())]


def _key_words(key_hi, key_lo) -> tuple[np.ndarray, np.ndarray]:
    """Key words as aligned 1-D uint64 arrays.

    They must pair one to one: a lone low word would otherwise
    broadcast across every key and answer for ids nobody asked about.
    """
    key_hi = np.atleast_1d(np.asarray(key_hi, dtype=np.uint64))
    key_lo = np.atleast_1d(np.asarray(key_lo, dtype=np.uint64))
    if key_hi.ndim != 1 or key_hi.shape != key_lo.shape:
        raise ValueError(
            "key words must be two equal-length 1-D arrays, got shapes "
            f"{key_hi.shape} and {key_lo.shape}"
        )
    return key_hi, key_lo


def searchsorted_words(
    hi: np.ndarray, lo: np.ndarray, key_hi, key_lo
) -> np.ndarray:
    """Leftmost insertion positions of keys in a sorted (hi, lo) pair.

    Equivalent to ``np.searchsorted(ids, keys)`` on the 128-bit values:
    searchsorted on the high words, then, for the keys whose high word
    ties an entry with a smaller low word, search the low words of that
    run of equal high words.  Uniform ids make every run one long, so a
    batch is settled by one check after the high-word search; the keys
    left bisect their runs together, one pass per halving of the
    longest run, not a step per member.  One needle searches the low
    words of its run directly: a long run (a clustered ring) costs it
    two more binary searches.

    The high words are searched in ascending needle order and the
    answers scattered back: NumPy's binary search keeps its lower bound
    while needles do not decrease, so an ordered pass walks the
    haystack once instead of restarting from both ends per needle
    (about half the cost per needle for thousands of needles on a
    10^5-id ring, order and scatter included; break-even near a
    hundred).  Each answer depends on its needle's value alone, so
    the result does not depend on the order asked in, nor on what the
    sort does with ties.  Key words that do not pair one to one raise
    ``ValueError`` — here for every kernel and overlay query built on
    this search.
    """
    key_hi, key_lo = _key_words(key_hi, key_lo)
    n = len(hi)
    if len(key_hi) == 1:
        # one needle — the scalar engine's probes: search the low words
        # of its run of equal high words
        left = int(np.searchsorted(hi, key_hi[0], side="left"))
        right = int(np.searchsorted(hi, key_hi[0], side="right"))
        left += int(np.searchsorted(lo[left:right], key_lo[0], side="left"))
        return np.array([left], dtype=np.intp)
    order = np.argsort(key_hi)
    pos = np.empty(len(key_hi), dtype=np.intp)
    pos[order] = np.searchsorted(hi, key_hi[order], side="left")
    if n == 0:
        # nothing to probe: every key inserts at 0
        return pos
    inside = pos < n
    probe = np.where(inside, pos, 0)
    step = inside & (hi[probe] == key_hi) & (lo[probe] < key_lo)
    if not step.any():
        return pos
    # bisect [first, last) of each run left: every entry before `first`
    # has a smaller low word, every one from `last` on does not (or is
    # past the run)
    idx = np.flatnonzero(step)
    first = pos[idx] + 1
    last = np.searchsorted(hi, key_hi[idx], side="right")
    klo = key_lo[idx]
    while True:
        open_ = first < last
        if not open_.any():
            pos[idx] = first
            return pos
        mid = (first + last) // 2
        below = open_ & (lo[np.where(open_, mid, 0)] < klo)
        first = np.where(below, mid + 1, first)
        last = np.where(open_ & ~below, mid, last)


def _sub_words(ahi, alo, bhi, blo):
    """(a - b) mod 2^128 on word pairs, via borrow propagation."""
    lo = alo - blo
    borrow = (alo < blo).astype(np.uint64)
    hi = ahi - bhi - borrow
    return hi, lo


def ring_distance_words(ahi, alo, bhi, blo):
    """Elementwise 128-bit ring distance min(|a-b|, 2^128-|a-b|).

    Mirrors :func:`repro.util.ids.ring_distance` exactly; inputs
    broadcast like numpy ufuncs.  Returns the distance as a (hi, lo)
    pair to be compared lexicographically.
    """
    dhi, dlo = _sub_words(ahi, alo, bhi, blo)
    zero = np.zeros_like(dhi)
    nhi, nlo = _sub_words(zero, np.zeros_like(dlo), dhi, dlo)
    neg_smaller = (nhi < dhi) | ((nhi == dhi) & (nlo < dlo))
    return np.where(neg_smaller, nhi, dhi), np.where(neg_smaller, nlo, dlo)


#: masks[s] keeps the low ``s`` bits of a uint64 word (s in [0, 64]);
#: indexing by a shift array sidesteps numpy's undefined behaviour for
#: per-element shifts of 64.
_LOW_MASKS = np.array(
    [(1 << s) - 1 for s in range(64)] + [_WORD_MASK], dtype=np.uint64
)
#: high_masks[s] clears the low ``s`` bits: the complement of _LOW_MASKS
_HIGH_MASKS = ~_LOW_MASKS


def clz64(values: np.ndarray) -> np.ndarray:
    """Elementwise count-leading-zeros of uint64 words (clz(0) == 64).

    Bit-smear to the right then popcount — exact for the full 64-bit
    range (a float log2 would lose the low bits past 2**53).
    """
    x = np.asarray(values, dtype=np.uint64).copy()
    for s in (1, 2, 4, 8, 16, 32):
        x |= x >> np.uint64(s)
    return (64 - np.bitwise_count(x)).astype(np.int64)


def shared_prefix_bits_words(ahi, alo, bhi, blo) -> np.ndarray:
    """Elementwise length (in bits) of the common 128-bit prefix.

    ``shared_prefix_digits(a, b, b_bits)`` is this divided by
    ``b_bits`` (floor) — the vectorised twin of
    :func:`repro.util.ids.shared_prefix_digits`, used by the batched
    packet plane to pick routing rows for whole packet fronts at once.
    """
    xhi, xlo = np.broadcast_arrays(
        np.asarray(ahi, dtype=np.uint64) ^ np.asarray(bhi, dtype=np.uint64),
        np.asarray(alo, dtype=np.uint64) ^ np.asarray(blo, dtype=np.uint64),
    )
    bits = np.asarray(clz64(xhi))
    # the low word counts only where the high words tie, which a routing
    # front almost never asks about
    tie = xhi == 0
    if tie.any():
        bits[tie] += clz64(xlo[tie])
    return bits


def clear_low_words(hi, lo, nbits) -> tuple[np.ndarray, np.ndarray]:
    """Zero the low ``nbits`` bits of 128-bit (hi, lo) pairs.

    The prefix-bucket lower bound of the packet plane: an id masked to
    its first ``128 - nbits`` bits is the smallest id in that bucket.
    ``nbits`` may be scalar or per-element, in [0, 128]; each word array
    broadcasts against it like a NumPy ufunc operand.
    """
    n = np.asarray(nbits, dtype=np.int64)
    return (np.asarray(hi, dtype=np.uint64) & _HIGH_MASKS[np.maximum(n - 64, 0)],
            np.asarray(lo, dtype=np.uint64) & _HIGH_MASKS[np.minimum(n, 64)])


def less_words(ahi, alo, bhi, blo) -> np.ndarray:
    """Elementwise a < b on 128-bit (hi, lo) pairs."""
    ahi = np.asarray(ahi, dtype=np.uint64)
    bhi = np.asarray(bhi, dtype=np.uint64)
    return (ahi < bhi) | ((ahi == bhi) & (np.asarray(alo, dtype=np.uint64)
                                          < np.asarray(blo, dtype=np.uint64)))


def merge_insert_positions(at, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan for merging ``k`` presorted elements into an ``n``-array.

    ``at`` are the leftmost insertion points (``searchsorted`` output,
    ascending) of the new elements against the existing array.  Returns
    ``(target, keep)``: ``target[j]`` is the position of new element
    ``j`` in the merged ``n + k`` array, and ``keep`` masks the slots
    occupied by the original elements (in their original order).

    One plan serves every aligned companion array — the compact engine
    scatters ``hi``, ``lo`` *and* ``alive`` through the same indices —
    where repeated ``np.insert`` calls would redo the index arithmetic
    and a full copy per array.
    """
    at = np.asarray(at, dtype=np.intp)
    k = len(at)
    target = at + np.arange(k, dtype=np.intp)
    keep = np.ones(n + k, dtype=bool)
    keep[target] = False
    return target, keep


def closest_index_words(
    sorted_hi: np.ndarray,
    sorted_lo: np.ndarray,
    key_hi,
    key_lo,
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the id closest to each key, ties toward the smaller id,
    and the key's insertion rank: ``(closest, after)``, where ``after``
    is the index of the first id at or after the key (0 past the last).

    ``closest`` is column 0 of :func:`replica_table_words` without
    ranking a window: the ``(ring distance, id)`` minimum over the ring
    — and over any subset holding both of the key's ring neighbours — is
    the first id at or after the key or the last one before it (wrapping
    at either end of the array).  With two or more ids those two gaps
    sum to less than 2**128, so the smaller *directed* gap is also the
    smaller ring distance and no folding is needed.  A single id is
    closest to every key; an empty ring has no answer and raises.
    """
    n = len(sorted_hi)
    if n == 0:
        raise ValueError("no ids: the closest id is undefined")
    key_hi, key_lo = _key_words(key_hi, key_lo)
    pos = searchsorted_words(sorted_hi, sorted_lo, key_hi, key_lo)
    after = np.where(pos < n, pos, 0)
    before = np.where(pos > 0, pos, n) - 1
    up_hi, up_lo = _sub_words(sorted_hi[after], sorted_lo[after], key_hi, key_lo)
    down_hi, down_lo = _sub_words(key_hi, key_lo,
                                  sorted_hi[before], sorted_lo[before])
    # a tie goes to the smaller id, i.e. the smaller index: `before`
    # unless the pair straddles the wrap
    take_before = less_words(down_hi, down_lo, up_hi, up_lo) | (
        (down_hi == up_hi) & (down_lo == up_lo) & (before < after)
    )
    return np.where(take_before, before, after), after


def replica_table_words(
    sorted_hi: np.ndarray,
    sorted_lo: np.ndarray,
    key_hi: np.ndarray,
    key_lo: np.ndarray,
    k: int,
) -> np.ndarray:
    """Indices (into the sorted ids) of the k closest ids per key.

    ``(sorted_hi, sorted_lo)`` must be numerically ascending and
    duplicate-free.  Returns ``(len(keys), k)`` indices, closest-first
    with ties toward the smaller id — the
    :func:`repro.util.ids.closest_ids` ranking on the real ring.

    With ``2k < n`` the answer is a k-step merge of two runs leaving the
    key's insertion point: ``k`` ids down from it, ordered by the
    directed gap ``key - id``, and ``k`` up from it, ordered by ``id -
    key`` (mod 2^128 both; the runs do not overlap).  Each step takes the
    run head with the smaller gap, a tie going to the smaller id.  This
    is the ``(ring distance, id)`` ranking of those ``2k`` ids, exactly:
    an id whose directed gap is at most 2^127 is at that ring distance,
    and one whose gap exceeds it lies past all ``k`` ids of the other run
    going the other way round, so all of them are closer and the merge,
    too, ranks it after them.
    """
    n = len(sorted_hi)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds population {n}")
    # checked here too: a ring small enough to rank whole never searches
    key_hi, key_lo = _key_words(key_hi, key_lo)

    if 2 * k >= n:
        cand = np.broadcast_to(np.arange(n), (len(key_hi), n))
        cand_hi = sorted_hi[cand]
        cand_lo = sorted_lo[cand]
        dist_hi, dist_lo = ring_distance_words(
            cand_hi, cand_lo, key_hi[:, None], key_lo[:, None]
        )
        # lexsort ranks by the last key first: distance (hi then lo), then
        # the candidate id (hi then lo) to break ties toward the smaller id.
        order = np.lexsort((cand_lo, cand_hi, dist_lo, dist_hi), axis=-1)
        return np.take_along_axis(cand, order[:, :k], axis=1)

    pos = searchsorted_words(sorted_hi, sorted_lo, key_hi, key_lo)
    steps = np.arange(k)
    down = ((pos[:, None] - 1 - steps) % n).ravel()
    up = ((pos[:, None] + steps) % n).ravel()
    khi = np.repeat(key_hi, k)
    klo = np.repeat(key_lo, k)
    down_hi, down_lo = _sub_words(khi, klo, sorted_hi[down], sorted_lo[down])
    up_hi, up_lo = _sub_words(sorted_hi[up], sorted_lo[up], khi, klo)
    # each run's head, as a flat index into its (keys, k) block
    i = np.arange(0, len(down), k)
    j = i.copy()
    table = np.empty((len(key_hi), k), dtype=np.intp)
    for step in range(k):
        dh, uh = down_hi[i], up_hi[j]
        dl, ul = down_lo[i], up_lo[j]
        di, ui = down[i], up[j]
        # ids ascend with index, so the smaller id is the smaller index
        take = (dh < uh) | (dh == uh) & ((dl < ul) | (dl == ul) & (di < ui))
        table[:, step] = np.where(take, di, ui)
        i += take
        j += ~take
    return table
