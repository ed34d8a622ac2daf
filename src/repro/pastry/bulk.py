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
  (:func:`bucket_bounds`);
* **prefix depths** — nodes sharing an r-digit prefix form a contiguous
  run in sorted order, so each node's deepest populated routing row is
  bounded by the shared prefix with its sort neighbours.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.ids import ID_BITS, id_digit, shared_prefix_digits


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
    — the one-bisect lookup :meth:`repro.pastry.node.PastryNode.cell`,
    the compact engine's scalar router and the batched packet plane
    (:mod:`repro.perf.packet`) build on.
    """
    shift = ID_BITS - b_bits * (row + 1)
    lower = ((node_prefix(node_id, row, b_bits) << b_bits) | col) << shift
    return lower, lower + (1 << shift)


def adjacent_prefix_depths(ids: Sequence[int], b_bits: int) -> list[int]:
    """Per node: max shared-prefix digits with either sort neighbour.

    This bounds the deepest routing row worth filling — a node's
    longest shared prefix with *any* node is achieved by one of its
    sort neighbours, so rows beyond ``depth + 1`` are provably empty.
    """
    n = len(ids)
    adjacent = [
        shared_prefix_digits(ids[i], ids[i + 1], b_bits) for i in range(n - 1)
    ]
    return [
        max(
            adjacent[i - 1] if i > 0 else 0,
            adjacent[i] if i < n - 1 else 0,
        )
        for i in range(n)
    ]


def proximity_pools(
    ids: Sequence[int], depths: Sequence[int], b_bits: int, sample: int
) -> dict[tuple[int, int, int], list[int]]:
    """Bounded candidate pools per bucket for proximity neighbour
    selection; candidates arrive in ascending id order."""
    rows = ID_BITS // b_bits
    pools: dict[tuple[int, int, int], list[int]] = {}
    for idx, nid in enumerate(ids):
        for row in range(min(rows, depths[idx] + 1)):
            key = (row, node_prefix(nid, row, b_bits), id_digit(nid, row, b_bits))
            pool = pools.setdefault(key, [])
            if len(pool) < sample:
                pool.append(nid)
    return pools
