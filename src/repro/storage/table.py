"""Tables and secondary indexes.

A :class:`Table` is a clustered index keyed by row id — matching the
paper's setup, where the "table scan" is really a scan of a clustered
index "organized on an entirely unrelated column" — plus any number of
single- or multi-column secondary indexes whose payload is the row id.
Row ids are dense, so the clustered leaf level is arithmetic: row ``r``
lives on data page ``r // per_leaf``, and the data pages are
``0..n_pages-1``; no leaf level is ever laid out.

The table exposes *mechanism*, not policy: vectorized helpers to map row
ids to physical pages and to gather column values.  The fetch *strategies*
(naive random, bitmap-sorted, adaptive prefetch) live in the executor and
decide how those pages are charged.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.bitmap import dedupe_sorted
from repro.storage.btree import BPlusTree
from repro.storage.codec import CompositeKeyCodec
from repro.storage.columns import LazyColumns
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
    depend on which indexes are ever used) and the key columns its key
    check read (the only columns a built system has drawn before a plan
    or a predicate reads one); the leaf level — encode the key columns,
    stable ``argsort``, ``bulk_load`` — is laid out the first time
    :attr:`tree` is read, once, under a lock.  That first reader is a
    plan that executes, or a pool's parent just before it forks
    (:class:`~repro.core.parallel.ParallelSweep`), so the workers
    inherit the tree instead of each building it again.  Holding an index
    in a plan builds nothing, and a request answered from the cell store
    never sorts a column.  Columns are immutable, so a tree built late is
    the tree that would have been built at creation.

    A cost model prices a plan by the index's ``n_leaf_pages`` and
    ``height``, set at creation from the row count and the tree's page
    layout by :meth:`BPlusTree.levels_for`, the formula the load lays
    the tree out by: costing a plan (a choice map over a warm cell
    store, say) loads no tree.

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
        # The tree's leaf pages and levels (1: the root is a leaf), known
        # before it is loaded.
        levels = tree.levels_for(self.n_rows)[1]
        self.n_leaf_pages = levels[0]
        self.height = len(levels)
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
    """Clustered storage for a fixed set of NumPy columns.

    Built from its row count and column dtypes alone: ``columns`` may be
    a :class:`~repro.storage.columns.LazyColumns`, whose values are made
    the first time something reads them, and the table reads none at
    construction.  It registers its clustered file there (so file ids
    follow construction order, as :meth:`create_index` keeps them for
    indexes) and takes its geometry from
    :meth:`~repro.storage.btree.BPlusTree.levels_for`, the formula a
    bulk load lays a tree out by: rows per data page and the data page
    count.  Every physical helper below computes from those two numbers
    what a laid-out leaf level would hold, so a scan that charges pages
    and counts rows reads no column value.
    """

    def __init__(
        self,
        env: StorageEnv,
        name: str,
        columns: Mapping[str, np.ndarray],
    ) -> None:
        if not columns:
            raise StorageError("a table needs at least one column")
        if isinstance(columns, LazyColumns):
            n_rows, dtypes = columns.n_rows, columns.dtypes
        else:
            lengths = {column: len(values) for column, values in columns.items()}
            if len(set(lengths.values())) != 1:
                raise StorageError(f"column lengths differ: {lengths}")
            columns = {
                column: np.ascontiguousarray(values)
                for column, values in columns.items()
            }
            n_rows = next(iter(lengths.values()))
            dtypes = {column: values.dtype for column, values in columns.items()}
        self.env = env
        self.name = name
        self._columns = columns
        self.n_rows = n_rows
        self.row_bytes = _ROW_OVERHEAD_BYTES + sum(
            dtype.itemsize for dtype in dtypes.values()
        )
        clustered = BPlusTree(env, f"{name}.clustered", entry_bytes=self.row_bytes)
        #: The data file: the clustered index's leaf pages.
        self.handle = clustered.handle
        self._per_leaf, levels = clustered.levels_for(n_rows)
        self.n_pages = levels[0]
        self.indexes: dict[str, SecondaryIndex] = {}
        self._sorted_columns: dict[str, np.ndarray] = {}

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        """The column mapping the table was built over."""
        return self._columns

    def materialize(self) -> None:
        """Make now everything a plan over the table may read later:
        every column and every index tree."""
        for name in self._columns:
            self.column(name)
        for index in self.indexes.values():
            index.tree  # noqa: B018 - the first read bulk-loads the tree

    def column(self, name: str) -> np.ndarray:
        """Raw column values (no I/O charged; for oracles and builders).

        A lazily made column is made by its first read."""
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
        return (rids // self._per_leaf).astype(np.int64, copy=False)

    def distinct_pages_of_sorted_rids(self, rids: np.ndarray) -> np.ndarray:
        """Sorted unique data pages of ascending row ids — a bitmap-sorted
        fetch's page sweep (vectorized, uncharged)."""
        rids = np.asarray(rids)
        if rids.size and (rids[0] < 0 or rids[-1] >= self.n_rows):
            raise StorageError("row id out of range")
        return dedupe_sorted(rids // self._per_leaf).astype(np.int64, copy=False)

    def gather(
        self, rids: np.ndarray, columns: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Column values for the given row ids (uncharged)."""
        names = tuple(columns) if columns is not None else tuple(self._columns)
        return {name: self.column(name)[rids] for name in names}

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------

    def create_index(
        self, name: str, key_columns: Sequence[str]
    ) -> SecondaryIndex:
        """Register a secondary index on one or more integer columns.

        Everything that can be refused is refused here — a duplicate
        name, an unknown or negative column, a key wider than the codec
        packs — and the index's file is created, so file ids follow
        creation order.  The key layout is the bits each column's values
        need.  Sorting the keys into the tree is left to the first read
        of :attr:`SecondaryIndex.tree`.
        """
        if name in self.indexes:
            raise StorageError(f"index {name!r} already exists")
        key_columns = tuple(key_columns)
        key_values = tuple(self.column(column) for column in key_columns)
        codec = CompositeKeyCodec([_required_bits(v) for v in key_values])
        tree = BPlusTree(
            self.env, f"{self.name}.{name}", entry_bytes=_INDEX_ENTRY_BYTES
        )
        index = SecondaryIndex(name, key_columns, key_values, codec, tree)
        self.indexes[name] = index
        return index

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.n_rows}, pages={self.n_pages}, "
            f"indexes={sorted(self.indexes)})"
        )
