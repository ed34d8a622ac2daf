"""Pastry prefix routing table.

Row ``r`` holds nodes sharing exactly ``r`` leading digits with the
owner; column ``c`` is the value of digit ``r`` of the entry.  With
b=4 there are 32 rows of 16 columns over the 128-bit space, of which
roughly ``log_16 N`` rows are populated in an N-node network.

Proximity-based entry selection (FreePastry picks the topologically
nearest candidate per cell) is out of scope: the reproduced
experiments do not depend on proximity, only on hop counts, which are
determined by prefix-match progress alone.
"""

from __future__ import annotations

from repro.pastry.constants import DEFAULT_B_BITS
from repro.util.ids import ID_BITS, id_digit, shared_prefix_digits


class RoutingTable:
    """Sparse (row, column) -> nodeid map with reverse and row indexes."""

    def __init__(self, owner_id: int, b_bits: int = DEFAULT_B_BITS):
        if ID_BITS % b_bits != 0:
            raise ValueError(f"b={b_bits} must divide {ID_BITS}")
        self.owner_id = owner_id
        self.b_bits = b_bits
        self.rows = ID_BITS // b_bits
        self.cols = 1 << b_bits
        self._cells: dict[tuple[int, int], int] = {}
        self._reverse: dict[int, tuple[int, int]] = {}
        #: row -> {col -> nodeid}, kept in lock-step with ``_cells`` so
        #: :meth:`row_entries` is O(row occupancy), not O(table).
        self._rows_index: dict[int, dict[int, int]] = {}
        #: bumped on every mutation; stamps the owner's ``next_hop``
        #: memo and the network's memoised routes
        self._version = 0
        #: optional ``(owner_id, added_id)`` callback observed by the
        #: network's leaf/table referrer index (see
        #: :meth:`repro.pastry.network.PastryNetwork._note_reference`)
        self.on_add = None

    def cell_for(self, node_id: int) -> tuple[int, int] | None:
        """The (row, col) a candidate id would occupy, or None for self."""
        if node_id == self.owner_id:
            return None
        row = shared_prefix_digits(self.owner_id, node_id, self.b_bits)
        col = id_digit(node_id, row, self.b_bits)
        return row, col

    def add(self, node_id: int, replace: bool = False) -> bool:
        """Install a candidate in its cell.

        Keeps the incumbent unless ``replace`` — entry churn does not
        affect correctness, only which of several valid nodes fills the
        cell.  Returns True if the candidate was installed.
        """
        cell = self.cell_for(node_id)
        if cell is None:
            return False
        if self.on_add is not None:
            self.on_add(self.owner_id, node_id)
        if cell in self._cells and not replace:
            return self._cells[cell] == node_id
        old = self._cells.get(cell)
        if old is not None:
            self._reverse.pop(old, None)
        self._install(cell, node_id)
        return True

    def _install(self, cell: tuple[int, int], node_id: int) -> None:
        self._cells[cell] = node_id
        self._rows_index.setdefault(cell[0], {})[cell[1]] = node_id
        self._reverse[node_id] = cell
        self._version += 1

    def install_cell(self, row: int, col: int, node_id: int) -> None:
        """Trusted direct install used by the bulk ring constructor and
        by repair, which refills a vacated cell in place: the caller
        guarantees ``(row, col) == cell_for(node_id)`` and that the cell
        is vacant — skips the prefix computation."""
        self._install((row, col), node_id)

    def load_cells(self, cells: dict[tuple[int, int], int]) -> None:
        """Replace the whole table from a ``cell -> nodeid`` mapping
        (the snapshot-restore path); the mapping is copied."""
        self._cells = dict(cells)
        rows_index: dict[int, dict[int, int]] = {}
        reverse: dict[int, tuple[int, int]] = {}
        for cell, nid in self._cells.items():
            rows_index.setdefault(cell[0], {})[cell[1]] = nid
            reverse[nid] = cell
        self._rows_index = rows_index
        self._reverse = reverse
        self._version += 1

    def remove(self, node_id: int) -> tuple[int, int] | None:
        """Drop an entry; returns the (row, col) it vacated, else None."""
        cell = self._reverse.pop(node_id, None)
        if cell is None:
            return None
        del self._cells[cell]
        row = self._rows_index.get(cell[0])
        if row is not None and row.get(cell[1]) == node_id:
            del row[cell[1]]
            if not row:
                del self._rows_index[cell[0]]
        self._version += 1
        return cell

    def lookup(self, row: int, col: int) -> int | None:
        return self._cells.get((row, col))

    def entry_for_key(self, key: int) -> int | None:
        """The routing-table next hop for ``key``: the cell matching the
        key's first divergent digit, if populated."""
        row = shared_prefix_digits(self.owner_id, key, self.b_bits)
        if row >= self.rows:
            return None  # key == owner id
        return self._cells.get((row, id_digit(key, row, self.b_bits)))

    def row_entries(self, row: int) -> dict[int, int]:
        """col -> nodeid mapping of one row (copy); O(row occupancy)."""
        entries = self._rows_index.get(row)
        return dict(entries) if entries else {}

    @property
    def entries(self) -> set[int]:
        """All node ids currently installed."""
        return set(self._reverse)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._reverse

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = sorted({r for r, _ in self._cells})
        return f"RoutingTable(owner={self.owner_id:#x}, rows={populated})"
