"""Physical plan trees and the measurement runner.

Each node charges the virtual clock for exactly the work a real executor
would do.  Plans are *forced*: there is no optimizer in the measurement
loop (the paper: "we assume that query optimization is complete and the
chosen query execution plan is fixed").

Node inventory (→ the paper's plan classes):

* :class:`TableScanNode` — full scan of the clustered index.
* :class:`IndexRangeRidsNode` — single-column index range scan → rids.
* :class:`FetchNode` — fetch base rows via a :class:`FetchStrategy`
  (naive / sorted-bitmap / adaptive-prefetch); optional residual
  predicates; optional MVCC verify-only mode (System B).
* :class:`RidIntersectNode` — index intersection by merge or hash join.
* :class:`CompositeRangeRidsNode` — composite-index range scan with
  in-index trailing filter → rids (System B's access path).
* :class:`CoveringCompositeScanNode` — covering composite scan, plain or
  MDAM (System C).
* :class:`CoveringRidJoinNode` — joins a rid set with a full scan of a
  second index so the join result covers the query (Fig 2's plans).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PlanError
from repro.executor.context import CostBudgetExceeded, ExecContext, PayloadMemo
from repro.executor.fetch import FetchStrategy
from repro.executor.mdam import mdam_scan, trailing_filter
from repro.executor.predicates import ColumnRange, apply_predicates
from repro.executor.results import Result
from repro.executor.sort import ExternalSort, SpillPolicy, charge_rid_sort
from repro.obs.tracer import trace_op
from repro.sim.disk import DiskStats
from repro.storage.bitmap import intersect_rids, probe_rids, rid_sort_order
from repro.storage.env import StorageEnv
from repro.storage.table import SecondaryIndex, Table


def _estimate(est: dict, key: str) -> float:
    """Look up one cardinality estimate; missing keys are plan errors."""
    try:
        return float(est[key])
    except KeyError:
        raise PlanError(
            f"plan costing needs estimate {key!r}; have {sorted(est)}"
        ) from None


class PlanNode(ABC):
    """Base class for all physical plan operators."""

    label: str = "plan"

    @abstractmethod
    def execute(self, ctx: ExecContext) -> Result:
        """Run the operator, charging virtual time; returns its result."""

    def estimated_cost(self, model, est: dict) -> float:
        """Compile-time cost under a cost model and cardinality estimates.

        ``model`` is a :class:`~repro.optimizer.cost_model.CostModel`
        (duck-typed so the executor stays free of optimizer imports);
        ``est`` follows the ``rows.<column>`` / ``sel.<column>`` /
        ``rows.out`` key convention of :mod:`repro.optimizer.estimation`.
        Each node mirrors the charges its :meth:`execute` makes, with
        true cardinalities replaced by the estimates.
        """
        raise PlanError(
            f"plan {self.label!r} has no compile-time cost model"
        )

    def estimated_rows(self, est: dict) -> float:
        """Estimated output cardinality under the same estimates."""
        raise PlanError(
            f"plan {self.label!r} has no output-cardinality estimate"
        )


class TableScanNode(PlanNode):
    """Sequential scan of the table's clustered index with predicates."""

    def __init__(
        self,
        table: Table,
        predicates: list[ColumnRange],
        project: list[str] | None = None,
    ) -> None:
        self.table = table
        self.predicates = predicates
        self.project = project if project is not None else []
        preds = " AND ".join(str(p) for p in predicates) or "true"
        self.label = f"TableScan({table.name}; {preds})"

    def execute(self, ctx: ExecContext) -> Result:
        """Scan that charges every row but defers row materialization.

        Virtual charges depend only on the qualifying *count*: a single
        range predicate is counted with two ``searchsorted`` calls over a
        cached sorted copy of the column (equal to
        ``count_nonzero(mask)`` for an inclusive integer range), and the
        rid/column arrays materialize lazily via :meth:`Result.deferred`
        — measurement loops never touch them.
        """
        table = self.table
        profile = ctx.profile
        with trace_op(ctx, "table-scan", "scan"):
            _keys, columns = table.clustered.scan_all()
            n_rows = table.n_rows
            ctx.charge(n_rows, profile.cpu_row)
            predicates = self.predicates
            mask: np.ndarray | None = None
            if predicates:
                ctx.charge(n_rows * len(predicates), profile.cpu_predicate)
                if len(predicates) == 1:
                    predicate = predicates[0]
                    ordered = table.sorted_column(predicate.column)
                    count = int(
                        np.searchsorted(ordered, predicate.hi, side="right")
                        - np.searchsorted(ordered, predicate.lo, side="left")
                    )
                else:
                    mask = apply_predicates(columns, predicates)
                    count = int(np.count_nonzero(mask))
            else:
                count = n_rows

            def rids_fn() -> np.ndarray:
                if not predicates:
                    return np.arange(n_rows, dtype=np.int64)
                qualifying = mask
                if qualifying is None:
                    qualifying = apply_predicates(columns, predicates)
                return np.flatnonzero(qualifying).astype(np.int64)

            def columns_fn(rids: np.ndarray) -> dict[str, np.ndarray]:
                needed = dict.fromkeys(
                    self.project + [p.column for p in predicates]
                )
                return {name: columns[name][rids] for name in needed}

            result = Result.deferred(count, rids_fn, columns_fn)
            ctx.charge(count, profile.cpu_row)
            ctx.check_budget()
            return result

    def estimated_rows(self, est: dict) -> float:
        if not self.predicates:
            return float(self.table.n_rows)
        return _estimate(est, "rows.out")

    def estimated_cost(self, model, est: dict) -> float:
        table = self.table
        profile = model.profile
        cost = model.sequential_read(table.n_pages)
        cost += model.cpu(table.n_rows, profile.cpu_row)
        if self.predicates:
            cost += model.cpu(
                table.n_rows * len(self.predicates), profile.cpu_predicate
            )
        cost += model.cpu(self.estimated_rows(est), profile.cpu_row)
        return cost


class IndexRangeRidsNode(PlanNode):
    """Range scan of a single-column index, emitting rids + key values."""

    def __init__(self, index: SecondaryIndex, predicate: ColumnRange) -> None:
        if len(index.key_columns) != 1:
            raise PlanError(
                f"IndexRangeRidsNode needs a single-column index, "
                f"got {index.key_columns}"
            )
        if predicate.column != index.key_columns[0]:
            raise PlanError(
                f"predicate column {predicate.column!r} does not match "
                f"index column {index.key_columns[0]!r}"
            )
        self.index = index
        self.predicate = predicate
        self.label = f"IndexRangeScan({index.name}; {predicate})"

    def execute(self, ctx: ExecContext) -> Result:
        with trace_op(ctx, "index-range-scan", "index"):
            index = self.index
            key_range = index.key_range_for(
                {self.predicate.column: self.predicate.as_tuple()}
            )
            if key_range is None:
                return Result.empty()
            keys, rids = index.read_range(*key_range)
            ctx.charge(keys.size, ctx.profile.cpu_bitmap_op)
            ctx.check_budget()
            # One result object per (index, range) and runner, so the
            # rid lists that plans share have one identity
            # (:func:`_intersection` memoizes by it).
            return ctx.memo.get(
                ("index-range", index, key_range),
                lambda: Result(
                    np.asarray(rids, dtype=np.int64),
                    {self.predicate.column: np.asarray(keys, dtype=np.int64)},
                ),
            )

    def estimated_rows(self, est: dict) -> float:
        return _estimate(est, f"rows.{self.predicate.column}")

    def estimated_cost(self, model, est: dict) -> float:
        rows = self.estimated_rows(est)
        selectivity = rows / max(1, self.index.n_rows)
        leaf_pages = max(1.0, selectivity * self.index.n_leaf_pages)
        cost = model.btree_descent(self.index.height)
        cost += model.sequential_read(leaf_pages)
        cost += model.cpu(rows, model.profile.cpu_bitmap_op)
        return cost


class CompositeRangeRidsNode(PlanNode):
    """Composite-index scan: leading range bounds I/O, trailing filtered in-index."""

    def __init__(
        self,
        index: SecondaryIndex,
        leading: ColumnRange,
        trailing: ColumnRange,
    ) -> None:
        codec = index.codec
        if codec.n_columns != 2:
            raise PlanError("CompositeRangeRidsNode needs a two-column index")
        lead_col, trail_col = index.key_columns
        if (leading.column, trailing.column) != (lead_col, trail_col):
            raise PlanError(
                f"predicates ({leading.column}, {trailing.column}) do not match "
                f"index columns ({lead_col}, {trail_col})"
            )
        self.index = index
        self.leading = leading
        self.trailing = trailing
        self.label = (
            f"CompositeRangeScan({index.name}; {leading}; in-index filter {trailing})"
        )

    def execute(self, ctx: ExecContext) -> Result:
        with trace_op(ctx, "composite-range-scan", "index"):
            return self._execute_traced(ctx)

    def _execute_traced(self, ctx: ExecContext) -> Result:
        index = self.index
        codec = index.codec
        maxima = tuple((1 << b) - 1 for b in codec.bits)
        lead_lo = max(0, self.leading.lo)
        lead_hi = min(self.leading.hi, maxima[0])
        if lead_lo > lead_hi:
            return Result.empty()
        lo_arr, hi_arr = codec.prefix_bounds(np.asarray([lead_lo, lead_hi]))
        key_range = (int(lo_arr[0]), int(hi_arr[1]))
        keys, _rids = index.read_range(*key_range)
        profile = ctx.profile
        ctx.charge(keys.size, profile.cpu_predicate)
        _inside, result = trailing_filter(
            ctx, index, key_range, self.trailing.as_tuple()
        )
        ctx.charge(result.n_rows, profile.cpu_bitmap_op)
        ctx.check_budget()
        return result


class FetchNode(PlanNode):
    """Fetch base rows for the child's rids via a fetch strategy.

    ``verify_only=True`` models System B's MVCC constraint: rows must be
    fetched to verify visibility, but output columns come from the child
    (the covering index) — the fetch cost is pure overhead.
    """

    def __init__(
        self,
        child: PlanNode,
        table: Table,
        strategy: FetchStrategy,
        residual: list[ColumnRange] | None = None,
        project: list[str] | None = None,
        verify_only: bool = False,
    ) -> None:
        self.child = child
        self.table = table
        self.strategy = strategy
        self.residual = residual or []
        self.project = project if project is not None else []
        self.verify_only = verify_only
        mode = "verify-only" if verify_only else "materialize"
        residual_text = " AND ".join(str(p) for p in self.residual) or "none"
        self.label = (
            f"Fetch({strategy.name}; {mode}; residual: {residual_text})"
        )

    def execute(self, ctx: ExecContext) -> Result:
        child_result = self.child.execute(ctx)
        if child_result.n_rows == 0:
            return child_result
        with trace_op(ctx, f"fetch:{self.strategy.name}", "fetch"):
            if self.verify_only:
                fetched = self.strategy.fetch(
                    ctx, self.table, child_result.rids, columns=[], residual=[]
                )
                # Visibility verification keeps the child's (index) columns
                # but the rid order of the fetch.
                sorted_child = _rid_sorted(ctx, child_result)
                fetched_rids = fetched.rids
                # A fetch that hands back the child's own rid list (the
                # naive one) cannot have changed the set.
                if fetched_rids is not child_result.rids and not np.array_equal(
                    fetched_rids[rid_sort_order(fetched_rids)], sorted_child.rids
                ):
                    raise PlanError("verify-only fetch changed the rid set")
                return sorted_child
            return self.strategy.fetch(
                ctx,
                self.table,
                child_result.rids,
                columns=self.project,
                residual=self.residual,
            )

    def estimated_rows(self, est: dict) -> float:
        if self.verify_only or not self.residual:
            return self.child.estimated_rows(est)
        return _estimate(est, "rows.out")

    def estimated_cost(self, model, est: dict) -> float:
        rows_in = self.child.estimated_rows(est)
        cost = self.child.estimated_cost(model, est)
        table = self.table
        profile = model.profile
        distinct = model.distinct_pages(table.n_pages, rows_in)
        if self.strategy.sort_rids:
            cost += model.cpu(2 * rows_in, profile.cpu_bitmap_op)
            cost += model.scattered_read(
                table.n_pages, distinct, self.strategy.coalesce
            )
        else:
            # Unsorted (index-key-ordered) fetches re-fault pages once the
            # table outgrows the buffer pool: expected misses grow with
            # the *row* count, not the distinct-page count.
            pool_pages = table.env.pool.capacity_pages
            if table.n_pages > pool_pages:
                thrash = rows_in * (1.0 - pool_pages / table.n_pages)
                distinct = max(distinct, thrash)
            cost += model.random_reads(distinct)
        cost += model.cpu(rows_in, profile.cpu_fetch_row)
        if self.residual and not self.verify_only:
            cost += model.cpu(
                rows_in * len(self.residual), profile.cpu_predicate
            )
        cost += model.cpu(self.estimated_rows(est), profile.cpu_row)
        return cost


def _rid_sorted(ctx: ExecContext, result: Result) -> Result:
    """``result`` with its rows in ascending rid order, once per result
    and runner (host payload: charges nothing)."""

    def sort() -> Result:
        order = rid_sort_order(result.rids)
        columns = {name: values[order] for name, values in result.columns.items()}
        return Result(result.rids[order], columns)

    return ctx.memo.derived("rid-sorted", (result,), sort)


def _intersection(
    ctx: ExecContext, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`intersect_rids` of two rid lists, once per pair and runner
    in either order (host payload: charges nothing).

    Unique rids fix every output array, whichever side is passed first:
    the common rids ascend and each position is that rid's place in its
    list.
    """
    if id(left) > id(right):
        common, right_pos, left_pos = _intersection(ctx, right, left)
        return common, left_pos, right_pos
    return ctx.memo.derived(
        "rid-intersection", (left, right), lambda: intersect_rids(left, right)
    )


class RidIntersectNode(PlanNode):
    """Intersect two rid sets by merge join or hash join.

    Merge sorts both inputs by rid and merges — cost symmetric in the two
    inputs (Fig 5).  Hash builds on one side and probes the other — cost
    asymmetric, and the join order (``build``) matters.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        algorithm: str = "merge",
        build: str = "left",
    ) -> None:
        if algorithm not in ("merge", "hash"):
            raise PlanError(f"unknown intersection algorithm {algorithm!r}")
        if build not in ("left", "right"):
            raise PlanError(f"build side must be 'left' or 'right', got {build!r}")
        self.left = left
        self.right = right
        self.algorithm = algorithm
        self.build = build
        suffix = f"; build={build}" if algorithm == "hash" else ""
        self.label = f"RidIntersect({algorithm}{suffix})"

    def execute(self, ctx: ExecContext) -> Result:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        with trace_op(ctx, f"rid-intersect:{self.algorithm}", "join"):
            return self._intersect(ctx, left, right)

    def _intersect(self, ctx: ExecContext, left: Result, right: Result) -> Result:
        profile = ctx.profile
        if self.algorithm == "merge":
            charge_rid_sort(ctx, left.n_rows)
            charge_rid_sort(ctx, right.n_rows)
            ctx.charge(left.n_rows + right.n_rows, profile.cpu_compare)
        else:
            build_res, probe_res = (
                (left, right) if self.build == "left" else (right, left)
            )
            n_bytes = build_res.n_rows * 32
            grant = ctx.broker.try_grant(n_bytes)
            if grant is None:
                # Grace hash join: partition both inputs to temp and read
                # them back — one extra sequential pass over both sides.
                for side in (build_res, probe_res):
                    if side.n_rows:
                        spill = ctx.temp.write_run(side.n_rows, 16)
                        ctx.temp.read_run_fully(spill)
            else:
                grant.release()
            # Building (insert + bucket maintenance) costs more per row
            # than probing -- the physical reason join order matters.
            ctx.charge(build_res.n_rows, 2 * profile.cpu_hash)
            ctx.charge(probe_res.n_rows, profile.cpu_hash)
        # Merge and hash differ in what they charge, not in what they
        # produce: rids are unique, so the result is the same either way.
        common, left_pos, right_pos = _intersection(ctx, left.rids, right.rids)
        columns = {
            name: values[left_pos] for name, values in left.columns.items()
        }
        for name, values in right.columns.items():
            if name not in columns:
                columns[name] = values[right_pos]
        ctx.charge(common.size, profile.cpu_row)
        ctx.check_budget()
        return Result(np.asarray(common, dtype=np.int64), columns)


class CoveringCompositeScanNode(PlanNode):
    """Covering scan of a composite index: plain range scan or MDAM.

    Never fetches base rows — only valid when the system's concurrency
    control versions index entries (System C; System B cannot run this).
    """

    def __init__(
        self,
        index: SecondaryIndex,
        leading: ColumnRange,
        trailing: ColumnRange,
        use_mdam: bool,
    ) -> None:
        codec = index.codec
        if codec.n_columns != 2:
            raise PlanError("CoveringCompositeScanNode needs a two-column index")
        self.index = index
        self.leading = leading
        self.trailing = trailing
        self.use_mdam = use_mdam
        kind = "MDAM" if use_mdam else "range+filter"
        self.label = f"CoveringCompositeScan({index.name}; {kind})"
        self._plain = (
            None
            if use_mdam
            else CompositeRangeRidsNode(index, leading, trailing)
        )

    def execute(self, ctx: ExecContext) -> Result:
        codec = self.index.codec
        maxima = tuple((1 << b) - 1 for b in codec.bits)
        if self.use_mdam:
            lead_lo = max(0, self.leading.lo)
            lead_hi = min(self.leading.hi, maxima[0])
            trail_lo = max(0, self.trailing.lo)
            trail_hi = min(self.trailing.hi, maxima[1])
            if lead_lo > lead_hi or trail_lo > trail_hi:
                return Result.empty()
            return mdam_scan(
                ctx, self.index, (lead_lo, lead_hi), (trail_lo, trail_hi)
            )
        assert self._plain is not None
        return self._plain.execute(ctx)


class CoveringRidJoinNode(PlanNode):
    """Join a rid set with a full scan of a value index (Fig 2's plans).

    The join result covers the query even though no single non-clustered
    index does: the child provides qualifying rids, the value index
    provides (value, rid) pairs for the projected column, and joining on
    rid avoids fetching base rows entirely.
    """

    def __init__(
        self,
        child: PlanNode,
        value_index: SecondaryIndex,
        algorithm: str = "hash",
        build: str = "child",
    ) -> None:
        if len(value_index.key_columns) != 1:
            raise PlanError("CoveringRidJoinNode needs a single-column value index")
        if algorithm not in ("merge", "hash"):
            raise PlanError(f"unknown join algorithm {algorithm!r}")
        if build not in ("child", "index"):
            raise PlanError(f"build side must be 'child' or 'index', got {build!r}")
        self.child = child
        self.value_index = value_index
        self.algorithm = algorithm
        self.build = build
        suffix = f"; build={build}" if algorithm == "hash" else ""
        self.label = f"CoveringRidJoin({value_index.name}; {algorithm}{suffix})"

    def execute(self, ctx: ExecContext) -> Result:
        child = self.child.execute(ctx)
        with trace_op(ctx, f"covering-rid-join:{self.algorithm}", "join"):
            return self._join(ctx, child)

    def _join(self, ctx: ExecContext, child: Result) -> Result:
        profile = ctx.profile
        value_keys, _ = self.value_index.scan_all()
        n_index = value_keys.size
        ctx.charge(n_index, profile.cpu_row)
        if self.algorithm == "merge":
            charge_rid_sort(ctx, child.n_rows)
            charge_rid_sort(ctx, n_index)
            ctx.charge(child.n_rows + n_index, profile.cpu_compare)
        else:
            build_rows = child.n_rows if self.build == "child" else n_index
            probe_rows = n_index if self.build == "child" else child.n_rows
            grant = ctx.broker.try_grant(build_rows * 32)
            if grant is None:
                for rows in (build_rows, probe_rows):
                    if rows:
                        spill = ctx.temp.write_run(rows, 16)
                        ctx.temp.read_run_fully(spill)
            else:
                grant.release()
            ctx.charge(build_rows, 2 * profile.cpu_hash)
            ctx.charge(probe_rows, profile.cpu_hash)
        # The index's cached rid -> position inverse makes the join a gather.
        common, child_idx, index_idx = probe_rids(
            child.rids, self.value_index.rid_positions()
        )
        columns = {name: values[child_idx] for name, values in child.columns.items()}
        columns[self.value_index.key_columns[0]] = np.asarray(
            value_keys, dtype=np.int64
        )[index_idx]
        ctx.charge(common.size, profile.cpu_row)
        ctx.check_budget()
        return Result(np.asarray(common, dtype=np.int64), columns)

    def estimated_cost(self, model, est: dict) -> float:
        rows_child = self.child.estimated_rows(est)
        n_index = float(self.value_index.n_rows)
        cost = self.child.estimated_cost(model, est)
        cost += model.sequential_read(self.value_index.n_leaf_pages)
        cost += model.cpu(n_index, model.profile.cpu_row)
        if self.algorithm == "merge":
            cost += model.rid_merge_cost(rows_child, n_index)
        elif self.build == "child":
            cost += model.rid_hash_cost(rows_child, n_index)
        else:
            cost += model.rid_hash_cost(n_index, rows_child)
        cost += model.cpu(rows_child, model.profile.cpu_row)
        return cost


class ExternalSortNode(PlanNode):
    """Sort a bound input array through :class:`ExternalSort`.

    The "plan" of the §4 sort-spill robustness maps: the input is fixed
    at construction (scenarios generate it deterministically per cell)
    and the node charges run generation, spilling, and merging against
    the workspace granted by the execution context — so the same node
    measured under different ``memory_bytes`` budgets traces the spill
    policy's degradation curve.
    """

    def __init__(
        self,
        values: np.ndarray,
        row_bytes: int = 8,
        policy: SpillPolicy = SpillPolicy.GRACEFUL,
    ) -> None:
        self.values = np.asarray(values)
        self.row_bytes = row_bytes
        self.policy = policy
        self.label = (
            f"ExternalSort({self.values.size} rows; {policy.value}; "
            f"{row_bytes}B/row)"
        )

    def execute(self, ctx: ExecContext) -> Result:
        with trace_op(ctx, "external-sort", "sort"):
            sorted_result = ExternalSort(
                ctx, row_bytes=self.row_bytes, policy=self.policy
            ).sort(self.values)
            ctx.check_budget()
        n_rows = int(self.values.size)
        # All charges happened above; defer the real np.sort payload.
        return Result.deferred(
            n_rows,
            lambda: np.arange(n_rows, dtype=np.int64),
            lambda rids: {"sorted": sorted_result.values},
        )


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class MeasuredRun:
    """One cold-cache measurement of one plan.

    ``rid_checksum`` is computed lazily: sweeps read only ``seconds`` /
    ``aborted`` / ``n_rows``, so deferring the checksum lets measurement
    loops skip materializing the rid arrays entirely.
    """

    __slots__ = (
        "plan_label",
        "seconds",
        "aborted",
        "n_rows",
        "io",
        "_rid_checksum",
        "_checksum_fn",
    )

    def __init__(
        self,
        plan_label: str,
        seconds: float,
        aborted: bool,
        n_rows: int,
        io: DiskStats,
        checksum_fn: Callable[[], int] | None = None,
    ) -> None:
        self.plan_label = plan_label
        self.seconds = seconds
        self.aborted = aborted
        self.n_rows = n_rows
        self.io = io
        self._rid_checksum: int | None = None
        self._checksum_fn = checksum_fn

    @property
    def rid_checksum(self) -> int:
        if self._rid_checksum is None:
            self._rid_checksum = (
                self._checksum_fn() if self._checksum_fn is not None else 0
            )
            self._checksum_fn = None
        return self._rid_checksum

    def __repr__(self) -> str:
        return (
            f"MeasuredRun({self.plan_label!r}, seconds={self.seconds!r}, "
            f"aborted={self.aborted}, n_rows={self.n_rows})"
        )


class PlanRunner:
    """Measures plans under cold-cache conditions on the virtual clock.

    The plans one runner measures share their uncharged host payload
    through its :class:`~repro.executor.context.PayloadMemo`, which
    lives exactly as long as the runner: a sweep makes one runner per
    provider and cell.  Each measurement still makes every charge itself.
    """

    def __init__(
        self,
        env: StorageEnv,
        memory_bytes: int | None = None,
        budget_seconds: float | None = None,
    ) -> None:
        self.env = env
        self.memory_bytes = memory_bytes
        self.budget_seconds = budget_seconds
        self.memo = PayloadMemo()

    def measure(self, plan: PlanNode) -> MeasuredRun:
        """Run the plan once and return its measured virtual cost."""
        self.env.cold_reset()
        ctx = ExecContext(
            self.env,
            memory_bytes=self.memory_bytes,
            budget_seconds=self.budget_seconds,
            memo=self.memo,
        )
        before = self.env.disk.stats.snapshot()
        ctx.arm_budget()
        aborted = False
        result: Result | None = None
        with self.env.stopwatch() as watch:
            try:
                # Root span: covers the whole measurement, so node spans
                # nest under it and its self-time is the uninstrumented
                # remainder.  A budget abort unwinds through the open
                # spans, closing each at the abort's clock value.
                with trace_op(ctx, "execute", "plan"):
                    result = plan.execute(ctx)
            except CostBudgetExceeded:
                aborted = True
        io_delta = self.env.disk.stats.delta(before)
        return MeasuredRun(
            plan_label=plan.label,
            seconds=watch.elapsed,
            aborted=aborted,
            n_rows=result.n_rows if result is not None else -1,
            io=io_delta,
            checksum_fn=result.rid_checksum if result is not None else None,
        )
