"""Selectivity-targeted predicate construction.

Robustness maps sweep *selectivity*, not raw values.  Given a column and a
target fraction, :class:`PredicateBuilder` finds the inclusive value range
``[0, v]`` whose achieved fraction of rows is closest to the target, and
reports the achieved fraction (what the map's axis should actually show).

Ranges are anchored at the low end of the domain, like the paper's sweeps
where "query result sizes differ by a factor of 2 between data points".
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.executor.predicates import ColumnRange
from repro.storage.table import Table


class PredicateBuilder:
    """Builds range predicates hitting target selectivities on one column."""

    def __init__(self, table: Table, column: str) -> None:
        self.table = table
        self.column = column
        values = table.column(column)
        if values.size == 0:
            raise WorkloadError(f"column {column!r} is empty")
        self._sorted = np.sort(np.asarray(values, dtype=np.int64))
        self._n = int(values.size)

    def range_for_selectivity(self, target: float) -> tuple[ColumnRange, float]:
        """Predicate ``[0, v]`` whose achieved fraction best matches target.

        Returns the predicate and its achieved selectivity.  ``target``
        must be in (0, 1]; a target of 1.0 returns the full domain.
        """
        if not 0.0 < target <= 1.0:
            raise WorkloadError(f"target selectivity must be in (0, 1], got {target}")
        wanted_rows = target * self._n
        # The cut-off index gives the number of selected rows; pick the
        # boundary value whose row count is nearest the target.
        idx = int(round(wanted_rows))
        idx = min(max(idx, 1), self._n)
        hi_value = int(self._sorted[idx - 1])
        # All duplicates of hi_value are included by the inclusive range.
        achieved_rows = int(np.searchsorted(self._sorted, hi_value, side="right"))
        predicate = ColumnRange(self.column, 0, hi_value)
        return predicate, achieved_rows / self._n

    def predicates_for_grid(
        self, targets: np.ndarray
    ) -> list[tuple[ColumnRange, float]]:
        """Vector version of :meth:`range_for_selectivity`."""
        return [self.range_for_selectivity(float(t)) for t in targets]
