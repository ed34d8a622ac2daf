"""Routing-table cells, read from the sorted alive ids.

Row ``r`` holds nodes sharing exactly ``r`` leading digits with the
owner; column ``c`` is the value of digit ``r`` of the entry, and the
entry is the smallest alive id of that prefix class.
"""

import pytest

from repro.pastry.network import PastryNetwork
from repro.util.ids import ID_BITS, id_digit, shared_prefix_digits


def _id_with_digits(*digits: int, b: int = 4) -> int:
    """Build an id from leading digits (rest zero)."""
    value = 0
    for d in digits:
        value = (value << b) | d
    return value << (ID_BITS - b * len(digits))


OWNER = _id_with_digits(0xA, 0xB, 0xC)


def owner_in(*others: int, b: int = 4) -> PastryNetwork:
    """An overlay of OWNER and ``others``."""
    return PastryNetwork.build([OWNER, *others], b_bits=b)


class TestCellAssignment:
    def test_self_has_no_cell(self):
        net = owner_in(_id_with_digits(0x1), _id_with_digits(0xA, 0xB, 0xD))
        for row in range(4):
            assert net.cell(OWNER, row, id_digit(OWNER, row)) is None
        assert OWNER not in net.cells(OWNER).values()

    def test_row_is_shared_prefix_length(self):
        other = _id_with_digits(0xA, 0xB, 0xD)  # shares 2 digits
        net = owner_in(other)
        assert net.cells(OWNER) == {(2, 0xD): other}

    def test_row_zero_for_no_shared_prefix(self):
        other = _id_with_digits(0x1)
        net = owner_in(other)
        assert net.cells(OWNER) == {(0, 0x1): other}

    def test_b_must_divide_id_bits(self):
        with pytest.raises(ValueError):
            PastryNetwork(b_bits=5)

    def test_b2_dimensions(self):
        others = [_id_with_digits(d, 1, b=2) for d in range(4)]
        net = owner_in(*others, b=2)
        cells = net.cells(OWNER)
        assert cells and all(row < 64 and col < 4 for row, col in cells)
        assert {col for row, col in cells if row == 0} == {0, 1, 3}  # OWNER starts 2


class TestAddRemove:
    """Cells follow membership: an id that becomes the smallest of its
    class takes the cell, and one that leaves hands it on."""

    def test_add_and_lookup(self):
        net = owner_in(_id_with_digits(0xA))
        other = _id_with_digits(0x1)
        net.join(other)
        assert net.cell(OWNER, 0, 0x1) == other
        assert other in net.leaves(OWNER)

    def test_replace_evicts(self):
        first = _id_with_digits(0x1, 0x5)
        second = _id_with_digits(0x1, 0x0)  # same cell (row 0, col 1), smaller
        net = owner_in(first)
        net.join(second)
        assert net.cell(OWNER, 0, 0x1) == second
        assert first not in net.cells(OWNER).values()

    def test_remove(self):
        other = _id_with_digits(0x1)
        net = owner_in(other, _id_with_digits(0x2))
        net.fail(other)
        assert net.cell(OWNER, 0, 0x1) is None
        assert other not in {*net.leaves(OWNER), *net.cells(OWNER).values()}
        net.revive(other)
        assert net.cell(OWNER, 0, 0x1) == other

    def test_len_counts_cells(self):
        net = owner_in(_id_with_digits(0x1), _id_with_digits(0x2), _id_with_digits(0x2, 0x3))
        assert len(net.cells(OWNER)) == 2


class TestEntryForKey:
    def test_matches_divergent_digit(self):
        candidate = _id_with_digits(0xA, 0x7)  # row 1, col 7
        net = owner_in(candidate)
        key = _id_with_digits(0xA, 0x7, 0xF)
        assert net.cell(OWNER, 1, id_digit(key, 1)) == candidate

    def test_missing_cell_none(self):
        net = owner_in(_id_with_digits(0x1))
        assert net.cell(OWNER, 0, 0x3) is None

    def test_own_id_none(self):
        """A key equal to the owner's id has no divergent digit: the
        owner delivers it locally."""
        net = owner_in(_id_with_digits(0x1), _id_with_digits(0xA, 0x7))
        assert net.next_hop(OWNER, OWNER) == OWNER

    def test_entry_shares_longer_prefix_with_key(self):
        """The Pastry progress property: a routing-table hop increases
        the shared prefix with the key."""
        candidate = _id_with_digits(0xA, 0x7)
        net = owner_in(candidate)
        key = _id_with_digits(0xA, 0x7, 0x1)
        row = shared_prefix_digits(OWNER, key)
        entry = net.cell(OWNER, row, id_digit(key, row))
        assert shared_prefix_digits(entry, key) > shared_prefix_digits(OWNER, key)


class TestRowEntries:
    def test_row_listing(self):
        a = _id_with_digits(0x1)
        b = _id_with_digits(0x2)
        deep = _id_with_digits(0xA, 0x5)
        net = owner_in(a, b, deep, _id_with_digits(0x1, 0x9))
        # the smallest id of each class holds its cell
        assert net.cells(OWNER) == {(0, 0x1): a, (0, 0x2): b, (1, 0x5): deep}
        assert net.cells(OWNER, first_row=1) == {(1, 0x5): deep}

    def test_entries_set(self):
        a = _id_with_digits(0x1)
        net = owner_in(a)
        assert set(net.cells(OWNER).values()) == {a}
        assert {*net.leaves(OWNER), *net.cells(OWNER).values()} == {a}

    def test_cell_digit_consistency(self):
        net = PastryNetwork.build(
            [OWNER] + [_id_with_digits(0xA, d, e) for d in range(0, 16, 3) for e in (1, 9)]
        )
        for owner in net.alive_ids:
            for (row, col), entry in net.cells(owner).items():
                assert shared_prefix_digits(owner, entry) == row
                assert id_digit(entry, row) == col
                assert entry == min(
                    nid for nid in net.alive_ids
                    if shared_prefix_digits(owner, nid) == row
                    and id_digit(nid, row) == col
                )
