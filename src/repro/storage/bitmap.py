"""Row-id bitmaps and the rid-set kernel.

The paper's System B "sorts rows to be fetched very efficiently using a
bitmap" (Fig 8).  A :class:`RowIdBitmap` collects qualifying row ids in
any order and hands them back sorted and de-duplicated, which converts a
random fetch pattern into a single forward sweep over the table's pages.

The same observation serves every rid-list operator: row ids are unique
non-negative integers drawn from ``[0, n_rows)``, so ordering a rid set
or intersecting two of them is a scatter into a table over the rid
universe followed by a gather — O(n), no comparison sort.  The kernel
functions below (:func:`rid_sort_order`, :func:`position_table`,
:func:`probe_rids`, :func:`intersect_rids`, :func:`dedupe_sorted`) do
exactly that when an input is dense in its universe and fall back to
sorting the (then small) input when it is not; the choice is made from
the input's size and largest rid alone.  They are host payload only:
they compute result arrays and never touch the virtual clock.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError, StorageError

# A rid array takes the scatter/gather path when it fills at least 1/8 of
# its universe ``max rid + 1``: below that, allocating and scanning the
# universe costs more than sorting the few rids there are.
_DENSE_SHARE = 8


class RowIdBitmap:
    """Fixed-universe bitmap over row ids ``0 .. n_rows-1``."""

    __slots__ = ("_bits", "_n_rows")

    def __init__(self, n_rows: int) -> None:
        if n_rows < 0:
            raise StorageError(f"bitmap universe must be non-negative, got {n_rows}")
        self._n_rows = n_rows
        self._bits = np.zeros(n_rows, dtype=bool)

    @property
    def memory_bytes(self) -> int:
        """Workspace footprint (1 bit per row, as a real system would use)."""
        return (self._n_rows + 7) // 8

    def add(self, rids: np.ndarray) -> None:
        """Set the bits for an array of row ids (duplicates are fine)."""
        rids = np.asarray(rids)
        if rids.size == 0:
            return
        if rids.min() < 0 or rids.max() >= self._n_rows:
            raise StorageError("row id outside bitmap universe")
        self._bits[rids] = True

    def sorted_rids(self) -> np.ndarray:
        """All present row ids, ascending — the sorted fetch order."""
        return np.flatnonzero(self._bits)

    def __repr__(self) -> str:
        n_set = int(np.count_nonzero(self._bits))
        return f"RowIdBitmap(n_rows={self._n_rows}, set={n_set})"


# ---------------------------------------------------------------------------
# rid-set kernel
# ---------------------------------------------------------------------------


def _reject_negative(smallest: int) -> None:
    if smallest < 0:
        raise PlanError("row ids must be non-negative")


def _universe_of(rids: np.ndarray) -> int:
    """``max rid + 1`` of a non-empty rid array; rejects negative rids."""
    _reject_negative(int(rids.min()))
    return int(rids.max()) + 1


def _is_dense(rids: np.ndarray, universe: int) -> bool:
    return int(rids.size) * _DENSE_SHARE >= universe


def rid_sort_order(rids: np.ndarray) -> np.ndarray:
    """Positions that put unique non-negative ``rids`` in ascending order.

    Equal to ``np.argsort(rids)`` — with unique rids there is only one
    such permutation, so stability is moot.  Raises :class:`PlanError`
    on a negative or duplicated rid instead of ordering it silently.
    """
    rids = np.asarray(rids)
    n = int(rids.size)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    positions = np.arange(n, dtype=np.intp)
    if n == 1 or bool(np.all(rids[1:] > rids[:-1])):
        # Already ascending (bitmap-sorted fetches, scans): nothing to do.
        _reject_negative(int(rids[0]))
        return positions
    universe = _universe_of(rids)
    if _is_dense(rids, universe):
        present = np.zeros(universe, dtype=bool)
        present[rids] = True
        ascending = np.flatnonzero(present)
        if ascending.size != n:
            raise PlanError("duplicate row id in a rid set")
        where = np.empty(universe, dtype=np.intp)
        where[rids] = positions
        return where[ascending]
    order = np.argsort(rids)
    ordered = rids[order]
    if bool(np.any(ordered[1:] == ordered[:-1])):
        raise PlanError("duplicate row id in a rid set")
    return order


def position_table(rids: np.ndarray) -> np.ndarray:
    """``table[rid]`` = position of ``rid`` in ``rids``, ``-1`` if absent.

    The table spans ``[0, max rid]``; callers use it only for inputs that
    are dense there (or cache it, as the value index's flat view does).
    Raises :class:`PlanError` on a negative or duplicated rid.
    """
    rids = np.asarray(rids)
    if rids.size == 0:
        return np.empty(0, dtype=np.intp)
    table = np.full(_universe_of(rids), -1, dtype=np.intp)
    table[rids] = np.arange(rids.size, dtype=np.intp)
    if int(np.count_nonzero(table >= 0)) != rids.size:
        raise PlanError("duplicate row id in a rid set")
    return table


def probe_rids(
    rids: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect ``rids`` with the rid set a :func:`position_table` holds.

    Returns ``(common, rid_pos, table_pos)``: the common rids ascending,
    their positions in ``rids``, and their positions in the array the
    table was built from — :func:`intersect_rids` with one side's table
    already in hand.
    """
    rids = np.asarray(rids)
    order = rid_sort_order(rids)
    ordered = rids[order]
    # Rids past the table's end cannot match; ``ordered`` is ascending,
    # so they are a suffix.
    in_table = int(np.searchsorted(ordered, table.size, side="left"))
    if in_table < ordered.size:
        order, ordered = order[:in_table], ordered[:in_table]
    found = table[ordered]
    hit = found >= 0
    if bool(hit.all()):
        return ordered, order, found
    return ordered[hit], order[hit], found[hit]


def intersect_rids(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection of two unique rid arrays, with positions in both.

    Same contract as ``np.intersect1d(left, right, assume_unique=True,
    return_indices=True)`` — ``common`` ascending, ``left[left_pos] ==
    right[right_pos] == common`` — but where NumPy silently returns wrong
    positions for a duplicated input, this raises :class:`PlanError`
    (and likewise for negative rids).
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if right.size < left.size:
        common, right_pos, left_pos = intersect_rids(right, left)
        return common, left_pos, right_pos
    if left.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return np.empty(0, dtype=left.dtype), empty, empty
    if _is_dense(right, _universe_of(right)):
        return probe_rids(left, position_table(right))
    # Both sides are sparse in the rid universe: sort each (they are
    # small) and binary-search one in the other.
    left_order = rid_sort_order(left)
    right_order = rid_sort_order(right)
    left_sorted = left[left_order]
    right_sorted = right[right_order]
    slot = np.searchsorted(right_sorted, left_sorted, side="left")
    slot = np.minimum(slot, right_sorted.size - 1)
    hit = right_sorted[slot] == left_sorted
    return left_sorted[hit], left_order[hit], right_order[slot[hit]]


def dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """Distinct values of a non-decreasing array (``np.unique`` sans sort)."""
    values = np.asarray(values)
    if values.size < 2:
        return values.copy()
    if bool(np.any(values[1:] < values[:-1])):
        raise PlanError("dedupe_sorted needs a non-decreasing array")
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
