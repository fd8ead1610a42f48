"""Compile-time plan costing against the simulated device profile.

The measurement loop deliberately has no optimizer ("we assume that query
optimization is complete and the chosen query execution plan is fixed");
this module adds the optimizer the paper's payoff analysis needs.  A
:class:`CostModel` prices a :class:`~repro.executor.plans.PlanNode` tree
from *estimated* cardinalities plus the same
:class:`~repro.sim.profile.DeviceProfile` the execution simulator charges
against — each node implements an ``estimated_cost(model, est)`` hook
mirroring the charges its ``execute`` method makes, with cardinalities
replaced by estimates.

Estimates are plain dicts with the key convention of
:mod:`repro.optimizer.estimation`: ``rows.<column>`` / ``sel.<column>``
per predicate, ``rows.out`` for the query output.

What is priced is what a map asks for: the nodes of System A's
single-predicate inventory (table scan, index range scan, the three
fetch strategies, the covering rid joins) — the ``estimation`` map's
candidate plans.  Any other node raises
:class:`~repro.errors.PlanError` from ``estimated_cost``.
"""

from __future__ import annotations

import math

from repro.sim.profile import DeviceProfile

#: Bytes per in-memory rid-hash entry and per spilled rid row — mirrors
#: the executor's constants in CoveringRidJoinNode.
RID_HASH_ENTRY_BYTES = 32
RID_SPILL_ROW_BYTES = 16


class CostModel:
    """Prices plan trees from estimates; all charges in virtual seconds.

    ``memory_bytes`` is the workspace the optimizer assumes for sort and
    hash operators (the compile-time counterpart of the sweep's
    ``memory_bytes`` knob); it defaults to the profile's.
    """

    def __init__(
        self,
        profile: DeviceProfile | None = None,
        memory_bytes: int | None = None,
    ) -> None:
        self.profile = profile or DeviceProfile()
        self.memory_bytes = (
            int(memory_bytes)
            if memory_bytes is not None
            else self.profile.memory_bytes
        )

    # ------------------------------------------------------------------
    # charge categories
    # ------------------------------------------------------------------

    def sequential_read(self, n_pages: float) -> float:
        """One positioning plus a streamed run of ``n_pages``."""
        if n_pages <= 0:
            return 0.0
        profile = self.profile
        return profile.seek_time + n_pages * profile.page_transfer_time

    def random_reads(self, n_pages: float) -> float:
        """``n_pages`` cold random page reads (seek + transfer each)."""
        if n_pages <= 0:
            return 0.0
        return n_pages * self.profile.random_page_time

    def cpu(self, n_items: float, seconds_per_item: float) -> float:
        return max(0.0, n_items) * seconds_per_item

    def sort_cpu(self, n_rows: float) -> float:
        """Comparison cost of sorting ``n_rows`` (n log2 n)."""
        if n_rows <= 1:
            return 0.0
        return self.cpu(n_rows * math.log2(n_rows), self.profile.cpu_compare)

    # ------------------------------------------------------------------
    # derived physical estimates
    # ------------------------------------------------------------------

    def distinct_pages(self, n_pages: int, n_rows: float) -> float:
        """Expected distinct pages touched by ``n_rows`` uniform rids (Yao)."""
        if n_pages <= 0 or n_rows <= 0:
            return 0.0
        if n_rows >= n_pages * 64:
            return float(n_pages)
        return n_pages * -math.expm1(n_rows * math.log1p(-1.0 / n_pages))

    def scattered_read(
        self, n_pages_file: int, n_distinct: float, coalesce: bool
    ) -> float:
        """A sorted sweep over ``n_distinct`` of a file's pages.

        Mirrors :meth:`~repro.sim.disk.Disk.read_scattered`: consecutive
        pages stream for free, forward gaps settle, and with ``coalesce``
        the head reads through a gap whenever streaming the unwanted
        pages is cheaper than repositioning (the improved index scan).
        For uniformly scattered pages the fraction of *gapped* steps is
        ``1 - density`` — a dense sweep converges to a sequential scan
        instead of paying a settle per page.
        """
        if n_distinct <= 0:
            return 0.0
        profile = self.profile
        n_distinct = min(float(n_distinct), float(n_pages_file))
        density = n_distinct / max(1, n_pages_file)
        n_gapped = n_distinct * max(0.0, 1.0 - density)
        cost = profile.seek_time
        cost += n_distinct * profile.page_transfer_time
        if n_gapped > 0:
            gap = (n_pages_file - n_distinct) / n_gapped + 1.0
            per_gap = profile.settle_time
            if coalesce:
                per_gap = min(
                    (gap - 1.0) * profile.page_transfer_time, per_gap
                )
            cost += n_gapped * per_gap
        return cost

    def _rid_spill(self, n_rows: float) -> float:
        """Write ``n_rows`` rids to temp and stream them back (one round trip)."""
        if n_rows <= 0:
            return 0.0
        profile = self.profile
        rows_per_page = max(1, profile.page_size // RID_SPILL_ROW_BYTES)
        pages = math.ceil(n_rows / rows_per_page)
        return 2.0 * (profile.seek_time + pages * profile.page_transfer_time)

    def sort_rids_cost(self, n_rows: float) -> float:
        """Sort a rid set, spilling one pass when it overflows memory."""
        cost = self.sort_cpu(n_rows)
        if n_rows * RID_SPILL_ROW_BYTES > self.memory_bytes:
            cost += self._rid_spill(n_rows)
        return cost

    def rid_merge_cost(self, rows_a: float, rows_b: float) -> float:
        """Merge-intersect two rid sets: sort both, one merge pass."""
        return (
            self.sort_rids_cost(rows_a)
            + self.sort_rids_cost(rows_b)
            + self.cpu(rows_a + rows_b, self.profile.cpu_compare)
        )

    def rid_hash_cost(self, build_rows: float, probe_rows: float) -> float:
        """Hash-intersect two rid sets: grace-spill both when the build
        side's table overflows memory, then build + probe."""
        cost = 0.0
        if build_rows * RID_HASH_ENTRY_BYTES > self.memory_bytes:
            cost += self._rid_spill(build_rows)
            cost += self._rid_spill(probe_rows)
        cost += self.cpu(build_rows, 2 * self.profile.cpu_hash)
        cost += self.cpu(probe_rows, self.profile.cpu_hash)
        return cost

    def btree_descent(self, height: int) -> float:
        """One cold root-to-leaf descent (random read per level + CPU)."""
        return self.random_reads(max(1, height)) + self.cpu(
            1, self.profile.btree_probe_cpu
        )

    # ------------------------------------------------------------------

    def cost(self, plan, est: dict) -> float:
        """Estimated virtual seconds for ``plan`` under the estimates."""
        return float(plan.estimated_cost(self, est))
