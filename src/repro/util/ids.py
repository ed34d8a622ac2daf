"""Identifier arithmetic on the 128-bit Pastry/PAST id ring.

Pastry node identifiers and PAST file identifiers (and therefore TAP
``hopid`` values) live in a circular space of ``2**128`` points.  All
"numerically closest" semantics in the reproduction are defined here in
one place so that the protocol simulation (:mod:`repro.pastry`), the
storage substrate (:mod:`repro.past`) and the vectorised 128-bit
kernels (:mod:`repro.analysis.idspace`) provably agree.

Conventions
-----------
* Ids are plain Python ints in ``[0, 2**128)``.
* Distance is *ring* distance: ``min(|a-b|, 2**128 - |a-b|)``.
* Ties (two nodes equidistant from a key) break toward the smaller id.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, Sequence

#: Number of bits in a Pastry/PAST identifier.
ID_BITS: int = 128

#: Size of the identifier space (one past the maximum id).
ID_SPACE: int = 1 << ID_BITS

#: Half of the identifier space; ring distances never exceed this.
HALF_SPACE: int = ID_SPACE >> 1


def _check_id(value: int) -> int:
    if not isinstance(value, int):
        raise TypeError(f"id must be int, got {type(value).__name__}")
    if not 0 <= value < ID_SPACE:
        raise ValueError(f"id {value!r} outside [0, 2**{ID_BITS})")
    return value


def ring_distance(a: int, b: int) -> int:
    """Circular distance between two ids on the ``2**128`` ring."""
    d = abs(_check_id(a) - _check_id(b))
    return min(d, ID_SPACE - d)


def _closeness_key(key: int):
    """Sort key implementing 'closest first, ties toward smaller id'."""

    def keyfunc(node_id: int):
        return (ring_distance(node_id, key), node_id)

    return keyfunc


def closest_ids(ids: Iterable[int], key: int, count: int = 1) -> list[int]:
    """Return the ``count`` ids closest to ``key`` (ring distance).

    Accepts any iterable; the result is ordered closest-first with the
    documented tie-break.  This is the reference (O(n log n))
    implementation that the fast sorted-array variants must match.
    """
    pool = list(ids)
    if count < 0:
        raise ValueError("count must be non-negative")
    pool.sort(key=_closeness_key(key))
    return pool[:count]


def closest_index(sorted_ids: Sequence[int], key: int) -> int:
    """Index of the id closest to ``key`` in an ascending sorted sequence.

    O(log n) via binary search on the sorted ring; the caller guarantees
    ``sorted_ids`` is sorted ascending and non-empty.
    """
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("closest_index of empty sequence")
    # The elements of a sorted id list were validated where it was
    # built: only ``key`` is checked, distances are plain arithmetic.
    _check_id(key)
    # The closest id is one of the key's two ring neighbours: the first
    # id at or after it and the last one before it, each wrapping at an
    # end of the array.  Ties go to the smaller id.
    pos = bisect_left(sorted_ids, key)
    after, before = pos % n, (pos - 1) % n
    a, b = sorted_ids[after], sorted_ids[before]
    da, db = abs(a - key), abs(b - key)
    if (min(da, ID_SPACE - da), a) < (min(db, ID_SPACE - db), b):
        return after
    return before


def closest_in_sorted(sorted_ids: Sequence[int], key: int, count: int = 1) -> list[int]:
    """``count`` closest ids from an ascending sorted sequence.

    O(log n + count) — expands outward from the closest element, which
    is how :mod:`repro.past` computes replica sets on large networks.
    """
    n = len(sorted_ids)
    if not 0 < count < n:
        return closest_ids(sorted_ids, key, count)
    centre = closest_index(sorted_ids, key)  # validates ``key``
    chosen = [sorted_ids[centre]]
    left = (centre - 1) % n
    right = (centre + 1) % n
    while len(chosen) < count:
        lid, rid = sorted_ids[left], sorted_ids[right]
        ld, rd = abs(lid - key), abs(rid - key)
        if (min(ld, ID_SPACE - ld), lid) <= (min(rd, ID_SPACE - rd), rid):
            chosen.append(lid)
            left = (left - 1) % n
        else:
            chosen.append(rid)
            right = (right + 1) % n
    return chosen


def random_id(rng: random.Random) -> int:
    """Uniform id from an explicit ``random.Random`` instance."""
    return rng.getrandbits(ID_BITS)


def id_digit(value: int, row: int, bits_per_digit: int = 4) -> int:
    """The ``row``-th base-``2**bits_per_digit`` digit, most significant first.

    Row 0 is the most significant digit — the convention used by Pastry
    routing tables.
    """
    _check_id(value)
    digits = ID_BITS // bits_per_digit
    if not 0 <= row < digits:
        raise ValueError(f"row {row} outside [0, {digits})")
    shift = (digits - 1 - row) * bits_per_digit
    return (value >> shift) & ((1 << bits_per_digit) - 1)


def shared_prefix_digits(a: int, b: int, bits_per_digit: int = 4) -> int:
    """Length of the common digit prefix of two ids (Pastry's ``shl``).

    Computed from the highest divergent *bit* (one XOR + bit_length)
    rather than a digit-by-digit scan — this sits on the routing and
    ring-construction hot paths.
    """
    diff = _check_id(a) ^ _check_id(b)
    if diff == 0:
        return ID_BITS // bits_per_digit
    return (ID_BITS - diff.bit_length()) // bits_per_digit
