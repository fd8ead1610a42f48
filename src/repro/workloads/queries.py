"""The paper's two canonical query templates.

* :class:`SinglePredicateQuery` (Figs 1-2):
  ``SELECT <project> FROM lineitem WHERE <column> BETWEEN lo AND hi`` —
  the projected column is *not* the predicate column, so index-only plans
  need either a fetch or a covering rid join.
* :class:`TwoPredicateQuery` (Figs 4-10):
  ``SELECT a, b FROM lineitem WHERE a BETWEEN .. AND b BETWEEN ..`` —
  the output is covered by a two-column index on (a, b), which is what
  makes System C's covering MDAM plan legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.executor.predicates import ColumnRange
from repro.storage.table import Table


@dataclass(frozen=True)
class SinglePredicateQuery:
    """One range predicate; projects a different column."""

    predicate: ColumnRange
    project: str = "suppkey"

    def oracle_rids(self, table: Table) -> np.ndarray:
        """Ground-truth qualifying rids (uncharged; for verification)."""
        return np.flatnonzero(self.predicate.mask(table.column(self.predicate.column)))


@dataclass(frozen=True)
class TwoPredicateQuery:
    """Conjunction of two range predicates; projects the two columns."""

    predicate_a: ColumnRange
    predicate_b: ColumnRange

    def oracle_rids(self, table: Table) -> np.ndarray:
        """Ground-truth qualifying rids (uncharged; for verification)."""
        a, b = self.predicate_a, self.predicate_b
        return np.flatnonzero(
            a.mask(table.column(a.column)) & b.mask(table.column(b.column))
        )
