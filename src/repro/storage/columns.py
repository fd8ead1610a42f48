"""Read-only table columns made on first read.

A :class:`~repro.storage.table.Table` needs only its row count and each
column's dtype to size its rows and register its files; the values
themselves are read by the plans that execute, the predicates a sweep
builds and the indexes a system creates.  :class:`LazyColumns` lets a
table be built from that much: each column is made the first time it is
read, once, under the mapping's lock, so a request answered from the
cell store makes only the columns its predicates and index checks read.
"""

from __future__ import annotations

import threading
from abc import abstractmethod
from collections.abc import Iterator, Mapping

import numpy as np

from repro.errors import StorageError


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
    """

    def __init__(self, n_rows: int, dtypes: Mapping[str, np.dtype]) -> None:
        self.n_rows = n_rows
        self.dtypes = {name: np.dtype(dtype) for name, dtype in dtypes.items()}
        self._values: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

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

    def __contains__(self, name: object) -> bool:
        return name in self.dtypes

    def __iter__(self) -> Iterator[str]:
        return iter(self.dtypes)

    def __len__(self) -> int:
        return len(self.dtypes)
