"""Ring-layout builders shared by the overlay engines.

:class:`repro.pastry.network.PastryNetwork` and the compact
array-backed engine (:mod:`repro.perf.compact`) must produce *the same*
canonical overlay for a given id population — that equivalence is a
tested contract.  The pieces of the layout that define "canonical" live
here, once:

* **leaf windows** — the half closest ids in each ring direction are
  exactly the index neighbours in sorted order, so a node's leaf set is
  the ±reach window around its sorted position;
* **prefix buckets** — a routing cell's entry is the smallest alive id
  of its prefix class, a contiguous interval of the sorted ring
  (:func:`bucket_bounds`).
"""

from __future__ import annotations

from repro.util.ids import ID_BITS


def leaf_reach(n: int, leaf_set_size: int) -> int:
    """Per-direction leaf window size for a population of ``n`` nodes."""
    return min(leaf_set_size // 2, n - 1)


def leaf_window(ids: list[int], idx: int, reach: int) -> list[int]:
    """The canonical leaf-set members of ``ids[idx]``, ascending.

    ``ids`` must be an ascending, duplicate-free list; the window is the
    ``reach`` index neighbours on each side, wrapping around the ring —
    two slices of ``ids`` when it does not wrap, and everyone else when
    the two sides meet (``2 * reach >= len(ids) - 1``).
    """
    n = len(ids)
    lo, hi = idx - reach, idx + reach + 1
    if hi - lo >= n:
        return ids[:idx] + ids[idx + 1:]
    if lo < 0:
        return ids[:idx] + ids[idx + 1:hi] + ids[lo:]
    if hi > n:
        return ids[:hi - n] + ids[lo:idx] + ids[idx + 1:]
    return ids[lo:idx] + ids[idx + 1:hi]


def node_prefix(node_id: int, row: int, b_bits: int) -> int:
    """The first ``row`` digits of ``node_id`` as an integer (0 for row 0)."""
    return node_id >> (ID_BITS - b_bits * row) if row else 0


def bucket_bounds(node_id: int, row: int, col: int, b_bits: int) -> tuple[int, int]:
    """The id interval of routing bucket ``(row, prefix(node), col)``.

    Returns ``(lower, upper)``: the bucket holds exactly the ids in
    ``[lower, upper)`` — those sharing ``node_id``'s first ``row``
    digits followed by digit ``col``.  Because the bucket is a
    contiguous interval of the sorted ring, its canonical entry (the
    smallest qualifying id) is the first alive id at or past ``lower``
    — the one-bisect lookup :meth:`repro.pastry.network.PastryNetwork.cell`
    and the batched packet plane (:mod:`repro.perf.packet`) build on.
    """
    shift = ID_BITS - b_bits * (row + 1)
    lower = ((node_prefix(node_id, row, b_bits) << b_bits) | col) << shift
    return lower, lower + (1 << shift)
