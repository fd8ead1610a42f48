"""Read-only table columns made on first read.

A :class:`~repro.storage.table.Table` needs only its row count and each
column's dtype to size its rows and register its files; the values
themselves are read by the plans that execute, the predicates a sweep
builds and the indexes a system creates.  :class:`LazyColumns` lets a
table be built from that much: each column is made the first time it is
read, once, under the mapping's lock, so a request answered from the
cell store makes only the columns its predicates and index checks read.
:class:`GivenColumns` is the same mapping over arrays given up front.

Several tables built over one mapping (Systems A, B and C host one
dataset) share its arrays, and also what is sorted from them: an
index's sorted layout (:meth:`LazyColumns.index_layout`) is made once
per key and kept on the mapping, so it lives as long as the tables that
read it and no longer.
"""

from __future__ import annotations

import threading
from abc import abstractmethod
from collections.abc import Iterator, Mapping

import numpy as np

from repro.errors import StorageError
from repro.storage.codec import CompositeKeyCodec


class LazyColumns(Mapping):
    """A read-only ``name -> array`` mapping whose values are made on
    first read.

    ``n_rows`` and ``dtypes`` are known up front.  A subclass makes
    values in :meth:`_draw`, which runs under the mapping's lock and may
    make other columns besides the one asked for (a generator that must
    draw in a fixed order makes the columns before it); every column it
    returns must have the declared dtype and ``n_rows`` values.  Testing
    membership or iterating names makes nothing; reading values
    (``values()``, ``items()``) makes every column.

    The mapping also keeps the sorted layout of every index built over
    it (:meth:`index_layout`): tables that share the mapping share those
    arrays, and they are freed with it.
    """

    def __init__(self, n_rows: int, dtypes: Mapping[str, np.dtype]) -> None:
        self.n_rows = n_rows
        self.dtypes = {name: np.dtype(dtype) for name, dtype in dtypes.items()}
        self._values: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self._layouts: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._layout_lock = threading.Lock()

    @abstractmethod
    def _draw(self, name: str) -> dict[str, np.ndarray]:
        """Make column ``name`` (and any it must come after)."""

    def __getitem__(self, name: str) -> np.ndarray:
        values = self._values.get(name)
        if values is not None:
            return values
        if name not in self.dtypes:
            raise KeyError(name)
        with self._lock:
            if name not in self._values:
                for column, made in self._draw(name).items():
                    if made.dtype != self.dtypes[column] or made.shape != (
                        self.n_rows,
                    ):
                        raise StorageError(
                            f"column {column!r} was made as {made.dtype} "
                            f"{made.shape}, declared {self.dtypes[column]} "
                            f"({self.n_rows},)"
                        )
                    self._values[column] = made
        return self._values[name]

    def index_layout(
        self, key_columns: tuple[str, ...], codec: CompositeKeyCodec
    ) -> tuple[np.ndarray, np.ndarray]:
        """An index's leaf level: its encoded keys in order, and the row
        id of each.

        Made the first time it is asked for — encode the key columns,
        stable ``argsort`` — once per key columns and codec bits, under
        its own lock, and kept: every tree bulk-loaded over the same key
        on a table of this mapping holds these two arrays.
        """
        key = (key_columns, codec.bits)
        with self._layout_lock:
            if key not in self._layouts:
                encoded = codec.encode([self[name] for name in key_columns])
                order = np.argsort(encoded, kind="stable")
                self._layouts[key] = (
                    encoded[order],
                    order.astype(np.int64, copy=False),
                )
            return self._layouts[key]

    def __contains__(self, name: object) -> bool:
        return name in self.dtypes

    def __iter__(self) -> Iterator[str]:
        return iter(self.dtypes)

    def __len__(self) -> int:
        return len(self.dtypes)


class GivenColumns(LazyColumns):
    """A :class:`LazyColumns` over arrays given up front: nothing is
    left to draw.  The arrays must be equally long."""

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise StorageError(f"column lengths differ: {lengths}")
        values = {
            name: np.ascontiguousarray(column) for name, column in columns.items()
        }
        super().__init__(
            next(iter(lengths.values())),
            {name: column.dtype for name, column in values.items()},
        )
        self._values.update(values)

    def _draw(self, name: str) -> dict[str, np.ndarray]:
        raise StorageError(f"column {name!r} was not given")
