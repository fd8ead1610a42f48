"""Row fetch strategies.

Given qualifying row ids from an index, a plan must fetch the base-table
rows.  *How* it fetches is the single biggest robustness lever in the
paper's Fig 1:

* :data:`NAIVE_FETCH` — the traditional index scan: one buffer-pool access
  per row, in index-key order (physically random).  Cheap for a handful of
  rows, catastrophic at moderate selectivities.
* :data:`SORTED_BITMAP_FETCH` — collect rids in a bitmap, fetch distinct
  pages in one forward sweep (System B's plan, Fig 8).
* :data:`ADAPTIVE_PREFETCH` — the "improved" index scan: sorted sweep that
  additionally reads through small gaps, converging to a (slightly more
  expensive) partial table scan at high selectivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.executor.context import ExecContext
from repro.executor.predicates import ColumnRange, apply_predicates
from repro.executor.results import Result
from repro.executor.sort import charge_rid_sort
from repro.storage.bitmap import RowIdBitmap
from repro.storage.table import Table

_NAIVE_CHUNK = 256  # rids fetched between budget checks


@dataclass(frozen=True)
class FetchStrategy:
    """A named row-fetch policy (see module docstring)."""

    name: str
    sort_rids: bool
    coalesce: bool

    def fetch(
        self,
        ctx: ExecContext,
        table: Table,
        rids: np.ndarray,
        columns: Sequence[str],
        residual: list[ColumnRange] | None = None,
    ) -> Result:
        """Fetch rows and apply residual predicates; returns a Result.

        ``columns`` are the output columns; residual predicate columns are
        gathered additionally and applied after the fetch (the Fig 4 plan:
        "applies the second predicate only after fetching entire rows").
        """
        residual = residual or []
        needed = list(dict.fromkeys(list(columns) + [p.column for p in residual]))
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return Result.empty()
        if self.sort_rids:
            fetch_order = self._sorted_fetch_order(ctx, table, rids)
        else:
            fetch_order = rids
            self._charge_naive(ctx, table, fetch_order)
        profile = ctx.profile
        ctx.charge(fetch_order.size, profile.cpu_fetch_row)
        values = table.gather(fetch_order, needed)
        if residual:
            ctx.charge(fetch_order.size * len(residual), profile.cpu_predicate)
            mask = apply_predicates(values, residual)
            fetch_order = fetch_order[mask]
            values = {name: column[mask] for name, column in values.items()}
        ctx.charge(fetch_order.size, profile.cpu_row)
        ctx.check_budget()
        return Result(fetch_order, {name: values[name] for name in columns})

    def _sorted_fetch_order(
        self, ctx: ExecContext, table: Table, rids: np.ndarray
    ) -> np.ndarray:
        """Sort the rids and stream their distinct pages.

        The rids go through a bitmap when its workspace grant fits, and
        through a rid sort (:func:`~repro.executor.sort.charge_rid_sort`:
        its own grant, else one temp round trip) when it does not.
        """
        profile = ctx.profile
        bitmap = RowIdBitmap(table.n_rows)
        grant = ctx.broker.try_grant(bitmap.memory_bytes)
        if grant is None:
            charge_rid_sort(ctx, rids.size)
            sorted_rids = np.unique(rids)
        else:
            try:
                ctx.charge(rids.size, profile.cpu_bitmap_op)
                bitmap.add(rids)
                sorted_rids = bitmap.sorted_rids()
                ctx.charge(sorted_rids.size, profile.cpu_bitmap_op)
            finally:
                grant.release()
        pages = table.distinct_pages_of_sorted_rids(sorted_rids)
        ctx.disk.read_scattered(
            table.clustered.handle, pages, coalesce=self.coalesce
        )
        ctx.check_budget()
        return sorted_rids

    def _charge_naive(self, ctx: ExecContext, table: Table, rids: np.ndarray) -> None:
        """One buffer-pool access per row, in the order given.

        The trace goes through :meth:`BufferPool.charge_trace` with the
        budget checked once per :data:`_NAIVE_CHUNK` pages — the clock
        and disk statistics at every check are bitwise those of a
        chunked :meth:`BufferPool.get` loop, so censored runs abort at
        the same point as that loop, having simulated little beyond it.
        """
        n = int(rids.size)
        checks = np.minimum(np.arange(_NAIVE_CHUNK, n + _NAIVE_CHUNK, _NAIVE_CHUNK), n)
        ctx.pool.charge_trace(
            table.clustered.handle, table.pages_of_rids(rids), ctx, checks
        )


NAIVE_FETCH = FetchStrategy("naive", sort_rids=False, coalesce=False)
SORTED_BITMAP_FETCH = FetchStrategy("sorted-bitmap", sort_rids=True, coalesce=False)
ADAPTIVE_PREFETCH = FetchStrategy("adaptive-prefetch", sort_rids=True, coalesce=True)
