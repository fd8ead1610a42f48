"""Tables and secondary indexes.

A :class:`Table` is a clustered B+-tree keyed by row id — matching the
paper's setup, where the "table scan" is really a scan of a clustered
index "organized on an entirely unrelated column" — plus any number of
single- or multi-column secondary indexes whose payload is the row id.

The table exposes *mechanism*, not policy: vectorized helpers to map row
ids to physical pages and to gather column values.  The fetch *strategies*
(naive random, bitmap-sorted, adaptive prefetch) live in the executor and
decide how those pages are charged.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from repro.errors import KeyCodecError, StorageError
from repro.storage.btree import BPlusTree
from repro.storage.codec import CompositeKeyCodec
from repro.storage.env import StorageEnv

_ROW_OVERHEAD_BYTES = 24  # header, null bitmap, slot entry
_INDEX_ENTRY_BYTES = 16  # key + row id


def _required_bits(values: np.ndarray) -> int:
    """Bits needed to store the column's maximum value (at least 1)."""
    if values.size == 0:
        return 1
    maximum = int(values.max())
    if int(values.min()) < 0:
        raise StorageError("index columns must be non-negative integers")
    return max(1, maximum.bit_length())


class SecondaryIndex:
    """Non-clustered index: encoded column key(s) -> row id.

    Built on first use.  :meth:`Table.create_index` hands over a
    registered but empty tree (the file handle exists, so file ids do not
    depend on which indexes are ever used); the leaf level — encode the
    key columns, stable ``argsort``, ``bulk_load`` — is laid out the
    first time :attr:`tree` is read, once, under a lock.  Plans only read
    it when they execute or are costed, so holding an index in a plan
    builds nothing, and a request answered from the cell store never
    sorts a column.  Columns are immutable, so a tree built late is the
    tree that would have been built at creation.

    The index keeps its key columns and the table's row count, not the
    table: a table lists its indexes, and an index pointing back would
    keep both alive until the cyclic garbage collector ran.
    """

    def __init__(
        self,
        name: str,
        key_columns: tuple[str, ...],
        key_values: tuple[np.ndarray, ...],
        codec: CompositeKeyCodec,
        tree: BPlusTree,
    ) -> None:
        self.name = name
        self.key_columns = key_columns
        self._key_values = key_values
        self.n_rows = len(key_values[0])
        self.codec = codec
        self._tree = tree
        self._loaded = False
        self._load_lock = threading.Lock()

    @property
    def tree(self) -> BPlusTree:
        """The index's B+-tree, bulk-loaded by the first reader."""
        if not self._loaded:
            with self._load_lock:
                if not self._loaded:
                    encoded = self.codec.encode(list(self._key_values))
                    order = np.argsort(encoded, kind="stable")
                    self._tree.bulk_load(
                        encoded[order],
                        {"rid": order.astype(np.int64, copy=False)},
                    )
                    self._loaded = True
        return self._tree

    @property
    def n_leaf_pages(self) -> int:
        return self.tree.n_leaf_pages

    def key_range_for(
        self, column_ranges: Mapping[str, tuple[int, int]]
    ) -> tuple[int, int] | None:
        """Encoded key range bounding the given per-column value ranges.

        Columns not mentioned default to their full domain; requested
        ranges are clamped to the domain, and ``None`` is returned when a
        clamped range is empty (the predicate selects nothing here).  For
        composite indexes the result is the *bounding* range;
        trailing-column ranges must still be re-checked on the entries
        (or probed via MDAM).
        """
        ranges = []
        for column, maximum in zip(self.key_columns, self._column_maxima()):
            lo, hi = column_ranges.get(column, (0, maximum))
            lo, hi = max(0, lo), min(hi, maximum)
            if lo > hi:
                return None
            ranges.append((lo, hi))
        return self.codec.range_for(ranges)

    def _column_maxima(self) -> tuple[int, ...]:
        return tuple((1 << b) - 1 for b in self.codec.bits)

    def read_range(
        self, lo_key: int, hi_key: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (encoded_keys, rids) with key in [lo_key, hi_key]."""
        keys, payload = self.tree.read_range(lo_key, hi_key)
        return keys, payload["rid"]

    def scan_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Full index scan in key order."""
        keys, payload = self.tree.scan_all()
        return keys, payload["rid"]

    def rid_positions(self) -> np.ndarray:
        """Cached rid -> scan position inverse (see ``_FlatView.rid_positions``)."""
        return self.tree.flat.rid_positions()


class Table:
    """Clustered storage for a fixed set of NumPy columns."""

    def __init__(
        self,
        env: StorageEnv,
        name: str,
        columns: Mapping[str, np.ndarray],
    ) -> None:
        if not columns:
            raise StorageError("a table needs at least one column")
        lengths = {column: len(values) for column, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise StorageError(f"column lengths differ: {lengths}")
        self.env = env
        self.name = name
        self._columns = {
            column: np.ascontiguousarray(values) for column, values in columns.items()
        }
        self.n_rows = next(iter(lengths.values()))
        self.row_bytes = _ROW_OVERHEAD_BYTES + sum(
            values.dtype.itemsize for values in self._columns.values()
        )
        rids = np.arange(self.n_rows, dtype=np.int64)
        self.clustered = BPlusTree(
            env, f"{name}.clustered", entry_bytes=self.row_bytes
        ).bulk_load(rids, dict(self._columns))
        self.indexes: dict[str, SecondaryIndex] = {}
        self._sorted_columns: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Leaf pages of the clustered index (the table's data pages)."""
        return self.clustered.n_leaf_pages

    def column(self, name: str) -> np.ndarray:
        """Raw column values (no I/O charged; for oracles and builders)."""
        if name not in self._columns:
            raise StorageError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def sorted_column(self, name: str) -> np.ndarray:
        """Cached ascending copy of a column (uncharged; for fast counts).

        Columns are immutable after construction, so the sort is paid
        once per (table, column) and amortized over every measurement
        that counts a range predicate via ``searchsorted``.
        """
        cached = self._sorted_columns.get(name)
        if cached is None:
            cached = np.sort(self.column(name))
            self._sorted_columns[name] = cached
        return cached

    # ------------------------------------------------------------------
    # physical helpers used by fetch strategies (no charging here)
    # ------------------------------------------------------------------

    def pages_of_rids(self, rids: np.ndarray) -> np.ndarray:
        """Data page number holding each row id (vectorized, uncharged)."""
        rids = np.asarray(rids)
        if rids.size and (rids.min() < 0 or rids.max() >= self.n_rows):
            raise StorageError("row id out of range")
        flat = self.clustered.flat
        leaf_idx = flat.leaf_index_of(rids)
        return flat.leaf_pages[leaf_idx]

    def distinct_pages_of_sorted_rids(self, rids: np.ndarray) -> np.ndarray:
        """Sorted unique data pages of ascending row ids — a bitmap-sorted
        fetch's page sweep (vectorized, uncharged)."""
        rids = np.asarray(rids)
        if rids.size and (rids[0] < 0 or rids[-1] >= self.n_rows):
            raise StorageError("row id out of range")
        flat = self.clustered.flat
        return flat.pages_of_leaves(flat.leaf_index_of(rids))

    def gather(
        self, rids: np.ndarray, columns: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Column values for the given row ids (uncharged)."""
        names = tuple(columns) if columns is not None else tuple(self._columns)
        flat = self.clustered.flat
        return {name: flat.payload[name][rids] for name in names}

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------

    def create_index(
        self,
        name: str,
        key_columns: Sequence[str],
        bits: Sequence[int] | None = None,
    ) -> SecondaryIndex:
        """Register a secondary index on one or more integer columns.

        Everything that can be refused is refused here — a duplicate
        name, an unknown or negative column, values that do not fit the
        key layout — and the index's file is created, so file ids follow
        creation order.  Sorting the keys into the tree is left to the
        first read of :attr:`SecondaryIndex.tree`.
        """
        if name in self.indexes:
            raise StorageError(f"index {name!r} already exists")
        key_columns = tuple(key_columns)
        needed = [_required_bits(self.column(column)) for column in key_columns]
        if bits is None:
            bits = needed
        codec = CompositeKeyCodec(bits)
        if len(codec.bits) != len(needed) or any(
            need > have for need, have in zip(needed, codec.bits)
        ):
            raise KeyCodecError(
                f"index {name!r}: columns need {needed} bits, layout has "
                f"{list(codec.bits)}"
            )
        tree = BPlusTree(
            self.env, f"{self.name}.{name}", entry_bytes=_INDEX_ENTRY_BYTES
        )
        key_values = tuple(self.column(column) for column in key_columns)
        index = SecondaryIndex(name, key_columns, key_values, codec, tree)
        self.indexes[name] = index
        return index

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.n_rows}, pages={self.n_pages}, "
            f"indexes={sorted(self.indexes)})"
        )
