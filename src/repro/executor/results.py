"""Plan execution results.

A :class:`Result` carries the row ids that qualified plus any materialized
output columns.  Row ids double as the cross-plan correctness oracle: two
plans for the same query must produce the same rid set regardless of how
differently they are charged.

Results may be *deferred*: a plan that already knows its output
cardinality (virtual-clock charging only needs counts) can hand over
thunks instead of materialized arrays, and the rids/columns are computed
only if someone actually reads them.  Sweeps read just ``n_rows``, so the
per-cell Python cost of a measurement drops to the charging itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Result:
    """Output of one plan (or sub-plan) execution."""

    __slots__ = ("_rids", "_columns", "_n_rows", "_rids_fn", "_columns_fn")

    def __init__(
        self, rids: np.ndarray, columns: dict[str, np.ndarray] | None = None
    ) -> None:
        self._rids: np.ndarray | None = rids
        self._columns: dict[str, np.ndarray] | None = (
            columns if columns is not None else {}
        )
        self._n_rows = int(rids.size)
        self._rids_fn: Callable[[], np.ndarray] | None = None
        self._columns_fn: (
            Callable[[np.ndarray], dict[str, np.ndarray]] | None
        ) = None

    @classmethod
    def deferred(
        cls,
        n_rows: int,
        rids_fn: Callable[[], np.ndarray],
        columns_fn: Callable[[np.ndarray], dict[str, np.ndarray]],
    ) -> "Result":
        """A result whose rids/columns materialize on first access.

        ``n_rows`` must equal ``rids_fn().size`` — the count is the only
        thing a measurement loop reads, and the oracle row check relies
        on it.  ``columns_fn`` is handed the rids (materialized once, the
        first time either is read) instead of reaching for the result,
        so no thunk references the result that holds it.
        """
        result = cls.__new__(cls)
        result._rids = None
        result._columns = None
        result._n_rows = int(n_rows)
        result._rids_fn = rids_fn
        result._columns_fn = columns_fn
        return result

    @property
    def rids(self) -> np.ndarray:
        if self._rids is None:
            assert self._rids_fn is not None
            self._rids = np.asarray(self._rids_fn())
            self._rids_fn = None
        return self._rids

    @property
    def columns(self) -> dict[str, np.ndarray]:
        if self._columns is None:
            assert self._columns_fn is not None
            self._columns = self._columns_fn(self.rids)
            self._columns_fn = None
        return self._columns

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def rid_checksum(self) -> int:
        """Order-independent checksum of the rid set (for plan agreement).

        Each rid is mixed independently and the mixes are XOR-reduced;
        XOR commutes, so no sort is needed — the checksum is identical
        for any permutation of the same rid set.
        """
        if self.n_rows == 0:
            return 0
        rids = np.asarray(self.rids, dtype=np.uint64)
        mixed = (rids * np.uint64(0x9E3779B97F4A7C15)) ^ (rids >> np.uint64(7))
        return int(np.bitwise_xor.reduce(mixed) ^ np.uint64(rids.size))

    def __repr__(self) -> str:
        state = "deferred" if self._rids is None else "materialized"
        return f"Result(n_rows={self._n_rows}, {state})"

    @staticmethod
    def empty() -> "Result":
        return Result(np.empty(0, dtype=np.int64), {})
