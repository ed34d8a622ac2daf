"""Tests for id arithmetic — the semantics every substrate shares."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ids import (
    ID_BITS,
    ID_SPACE,
    closest_ids,
    closest_in_sorted,
    closest_index,
    id_digit,
    random_id,
    ring_distance,
    shared_prefix_digits,
)

ids_st = st.integers(min_value=0, max_value=ID_SPACE - 1)


class TestRingDistance:
    def test_zero_for_equal(self):
        assert ring_distance(42, 42) == 0

    def test_simple(self):
        assert ring_distance(10, 13) == 3

    def test_wraps_around(self):
        assert ring_distance(0, ID_SPACE - 1) == 1

    def test_max_is_half_space(self):
        assert ring_distance(0, ID_SPACE // 2) == ID_SPACE // 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ring_distance(ID_SPACE, 0)
        with pytest.raises(ValueError):
            ring_distance(-1, 0)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            ring_distance(1.5, 0)

    @given(a=ids_st, b=ids_st)
    def test_symmetry(self, a, b):
        assert ring_distance(a, b) == ring_distance(b, a)

    @given(a=ids_st, b=ids_st, c=ids_st)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c)

    @given(a=ids_st, b=ids_st, shift=ids_st)
    def test_translation_invariance(self, a, b, shift):
        assert ring_distance(a, b) == ring_distance(
            (a + shift) % ID_SPACE, (b + shift) % ID_SPACE
        )


class TestClosestIds:
    def test_single_closest(self):
        assert closest_ids([10, 20, 30], 19) == [20]

    def test_ordering_closest_first(self):
        assert closest_ids([10, 20, 30], 19, count=3) == [20, 10, 30]

    def test_tie_breaks_toward_smaller_id(self):
        # 15 is equidistant from 10 and 20.
        assert closest_ids([20, 10], 15, count=2) == [10, 20]

    def test_wraparound_closest(self):
        assert closest_ids([5, ID_SPACE - 5], 1, count=1) == [ID_SPACE - 5] or \
            closest_ids([5, ID_SPACE - 5], 1, count=1) == [5]
        # distance(5,1)=4, distance(ID_SPACE-5,1)=6 -> 5 wins
        assert closest_ids([5, ID_SPACE - 5], 1, count=1) == [5]

    def test_count_zero(self):
        assert closest_ids([1, 2, 3], 2, count=0) == []

    def test_count_negative_rejected(self):
        with pytest.raises(ValueError):
            closest_ids([1], 0, count=-1)

    def test_count_exceeding_population(self):
        assert len(closest_ids([1, 2], 0, count=5)) == 2


class TestClosestInSorted:
    @given(
        pool=st.lists(ids_st, min_size=1, max_size=40, unique=True),
        key=ids_st,
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_reference(self, pool, key, data):
        """The O(log n) sorted variant must agree with the O(n log n)
        reference on ids, order and ties, for every count from none to
        the whole pool."""
        count = data.draw(st.integers(min_value=0, max_value=len(pool)), label="count")
        assert closest_in_sorted(sorted(pool), key, count) == closest_ids(
            pool, key, count
        )

    def test_count_negative_rejected(self):
        with pytest.raises(ValueError):
            closest_in_sorted([1, 2, 3], 0, -1)

    def test_closest_index_empty_rejected(self):
        with pytest.raises(ValueError):
            closest_index([], 5)

    def test_closest_index_wraps(self):
        pool = [10, ID_SPACE - 10]
        assert pool[closest_index(pool, 3)] == 10
        assert pool[closest_index(pool, ID_SPACE - 3)] == ID_SPACE - 10


class TestDigits:
    def test_most_significant_first(self):
        value = 0xA << (ID_BITS - 4)
        assert id_digit(value, 0) == 0xA
        assert id_digit(value, 1) == 0

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            id_digit(0, 32)
        with pytest.raises(ValueError):
            id_digit(0, -1)

    def test_b2_digits(self):
        value = 0b11 << (ID_BITS - 2)
        assert id_digit(value, 0, bits_per_digit=2) == 0b11

    @given(value=ids_st)
    def test_digits_reassemble(self, value):
        digits = [id_digit(value, r) for r in range(ID_BITS // 4)]
        rebuilt = 0
        for d in digits:
            rebuilt = (rebuilt << 4) | d
        assert rebuilt == value


class TestSharedPrefix:
    def test_identical_full_length(self):
        assert shared_prefix_digits(7, 7) == ID_BITS // 4

    def test_differs_at_first_digit(self):
        a = 0x1 << (ID_BITS - 4)
        b = 0x2 << (ID_BITS - 4)
        assert shared_prefix_digits(a, b) == 0

    @given(a=ids_st, b=ids_st)
    def test_symmetric(self, a, b):
        assert shared_prefix_digits(a, b) == shared_prefix_digits(b, a)

    @given(a=ids_st, b=ids_st)
    def test_consistent_with_digits(self, a, b):
        r = shared_prefix_digits(a, b)
        for row in range(r):
            assert id_digit(a, row) == id_digit(b, row)
        if r < ID_BITS // 4:
            assert id_digit(a, r) != id_digit(b, r)


class TestRandomId:
    def test_deterministic_per_seed(self):
        assert random_id(random.Random(1)) == random_id(random.Random(1))

    def test_in_range(self):
        rng = random.Random(2)
        for _ in range(100):
            assert 0 <= random_id(rng) < ID_SPACE
