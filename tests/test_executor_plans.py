"""Correctness tests for every plan node (vs. NumPy ground truth)."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.errors import PlanError
from repro.executor import (
    ADAPTIVE_PREFETCH,
    NAIVE_FETCH,
    SORTED_BITMAP_FETCH,
    ColumnRange,
    CompositeRangeRidsNode,
    CoveringCompositeScanNode,
    CoveringRidJoinNode,
    FetchNode,
    IndexRangeRidsNode,
    PlanRunner,
    RidIntersectNode,
    TableScanNode,
)

PA = ColumnRange("a", 1000, 30000)
PB = ColumnRange("b", 0, 400000)


def oracle(table):
    mask = PA.mask(table.column("a")) & PB.mask(table.column("b"))
    return np.flatnonzero(mask)


def all_two_predicate_plans(table):
    idx_a, idx_b = table.indexes["idx_a"], table.indexes["idx_b"]
    idx_ab, idx_ba = table.indexes["idx_ab"], table.indexes["idx_ba"]
    return {
        "table_scan": TableScanNode(table, [PA, PB], project=["a", "b"]),
        "idx_a_fetch": FetchNode(
            IndexRangeRidsNode(idx_a, PA), table, ADAPTIVE_PREFETCH,
            residual=[PB], project=["a", "b"],
        ),
        "idx_b_fetch": FetchNode(
            IndexRangeRidsNode(idx_b, PB), table, ADAPTIVE_PREFETCH,
            residual=[PA], project=["a", "b"],
        ),
        "merge": RidIntersectNode(
            IndexRangeRidsNode(idx_a, PA), IndexRangeRidsNode(idx_b, PB), "merge"
        ),
        "hash_left": RidIntersectNode(
            IndexRangeRidsNode(idx_a, PA), IndexRangeRidsNode(idx_b, PB), "hash", "left"
        ),
        "hash_right": RidIntersectNode(
            IndexRangeRidsNode(idx_a, PA), IndexRangeRidsNode(idx_b, PB), "hash", "right"
        ),
        "b_bitmap": FetchNode(
            CompositeRangeRidsNode(idx_ab, PA, PB), table, SORTED_BITMAP_FETCH,
            verify_only=True,
        ),
        "b_naive": FetchNode(
            CompositeRangeRidsNode(idx_ba, PB, PA), table, NAIVE_FETCH,
            verify_only=True,
        ),
        "c_mdam": CoveringCompositeScanNode(idx_ab, PA, PB, use_mdam=True),
        "c_mdam_ba": CoveringCompositeScanNode(idx_ba, PB, PA, use_mdam=True),
        "c_range": CoveringCompositeScanNode(idx_ab, PA, PB, use_mdam=False),
    }


@pytest.fixture
def plans(indexed_table):
    return indexed_table, all_two_predicate_plans(indexed_table)


def test_all_plans_agree_with_oracle(plans, env):
    table, plan_dict = plans
    expected = set(oracle(table).tolist())
    runner = PlanRunner(env)
    for name, plan in plan_dict.items():
        run = runner.measure(plan)
        assert not run.aborted, name
        assert run.n_rows == len(expected), name


def test_all_plans_same_checksum(plans, env):
    table, plan_dict = plans
    runner = PlanRunner(env)
    checksums = {name: runner.measure(plan).rid_checksum for name, plan in plan_dict.items()}
    assert len(set(checksums.values())) == 1, checksums


def test_plans_carry_predicate_columns(plans, env):
    table, plan_dict = plans
    runner = PlanRunner(env)
    for name in ("table_scan", "idx_a_fetch", "merge", "c_mdam"):
        result = plan_dict[name].execute(
            __import__("repro.executor.context", fromlist=["ExecContext"]).ExecContext(env)
        )
        assert "a" in result.columns and "b" in result.columns, name
        assert np.array_equal(result.columns["a"], table.column("a")[result.rids])


def test_empty_result_plans(indexed_table, env):
    empty_a = ColumnRange("a", 1 << 30, 1 << 31)
    plan = FetchNode(
        IndexRangeRidsNode(indexed_table.indexes["idx_a"], empty_a),
        indexed_table,
        ADAPTIVE_PREFETCH,
        project=["b"],
    )
    run = PlanRunner(env).measure(plan)
    assert run.n_rows == 0
    # A leading (or trailing) range that is empty once clamped to what the
    # composite key can hold reads nothing either, MDAM or not.
    idx_ab = indexed_table.indexes["idx_ab"]
    beyond = ColumnRange("a", 1 << 30, 1 << 31)
    for plan in (
        CompositeRangeRidsNode(idx_ab, beyond, PB),
        CoveringCompositeScanNode(idx_ab, beyond, PB, use_mdam=True),
        CoveringCompositeScanNode(idx_ab, PA, ColumnRange("b", 1 << 40, 1 << 41), use_mdam=True),
    ):
        run = PlanRunner(env).measure(plan)
        assert (run.n_rows, run.io.pages_read) == (0, 0)


def test_table_scan_no_predicates(indexed_table, env):
    run = PlanRunner(env).measure(TableScanNode(indexed_table, []))
    assert run.n_rows == indexed_table.n_rows


def test_index_node_validates_column(indexed_table):
    with pytest.raises(PlanError):
        IndexRangeRidsNode(indexed_table.indexes["idx_a"], ColumnRange("b", 0, 1))


def test_index_node_rejects_composite(indexed_table):
    with pytest.raises(PlanError):
        IndexRangeRidsNode(indexed_table.indexes["idx_ab"], PA)


def test_composite_node_validates_order(indexed_table):
    with pytest.raises(PlanError):
        CompositeRangeRidsNode(indexed_table.indexes["idx_ab"], PB, PA)


def test_intersect_validates_args(indexed_table):
    a = IndexRangeRidsNode(indexed_table.indexes["idx_a"], PA)
    b = IndexRangeRidsNode(indexed_table.indexes["idx_b"], PB)
    with pytest.raises(PlanError):
        RidIntersectNode(a, b, "sortmerge")
    with pytest.raises(PlanError):
        RidIntersectNode(a, b, "hash", build="top")


def test_verify_only_keeps_index_columns(indexed_table, env):
    from repro.executor.context import ExecContext

    plan = FetchNode(
        CompositeRangeRidsNode(indexed_table.indexes["idx_ab"], PA, PB),
        indexed_table,
        SORTED_BITMAP_FETCH,
        verify_only=True,
    )
    result = plan.execute(ExecContext(env))
    assert np.array_equal(result.columns["a"], indexed_table.column("a")[result.rids])
    assert np.array_equal(result.columns["b"], indexed_table.column("b")[result.rids])


def test_hash_order_changes_cost(plans, env):
    """Join order matters for hash, much less for merge (Fig 5 / §3.3)."""
    table, plan_dict = plans
    runner = PlanRunner(env)
    t_left = runner.measure(plan_dict["hash_left"]).seconds
    t_right = runner.measure(plan_dict["hash_right"]).seconds
    assert t_left != pytest.approx(t_right, rel=1e-6)


def test_covering_rid_join_matches_fetch(indexed_table, env):
    pred = ColumnRange("b", 0, 200000)
    rids_node = IndexRangeRidsNode(indexed_table.indexes["idx_b"], pred)
    join_plan = CoveringRidJoinNode(rids_node, indexed_table.indexes["idx_val"], "hash")
    from repro.executor.context import ExecContext

    result = join_plan.execute(ExecContext(env))
    expected_rids = np.flatnonzero(pred.mask(indexed_table.column("b")))
    assert set(result.rids.tolist()) == set(expected_rids.tolist())
    assert np.array_equal(
        result.columns["val"], indexed_table.column("val")[result.rids]
    )


def test_covering_rid_join_merge_variant(indexed_table, env):
    pred = ColumnRange("b", 0, 100000)
    from repro.executor.context import ExecContext

    plan = CoveringRidJoinNode(
        IndexRangeRidsNode(indexed_table.indexes["idx_b"], pred),
        indexed_table.indexes["idx_val"],
        "merge",
    )
    result = plan.execute(ExecContext(env))
    expected = np.flatnonzero(pred.mask(indexed_table.column("b")))
    assert set(result.rids.tolist()) == set(expected.tolist())


def test_runner_cold_resets_pool(indexed_table, env):
    runner = PlanRunner(env)
    plan = TableScanNode(indexed_table, [PA])
    first = runner.measure(plan).seconds
    second = runner.measure(plan).seconds
    assert first == pytest.approx(second)


def test_runner_budget_censors(indexed_table, env):
    runner = PlanRunner(env, budget_seconds=1e-9)
    run = runner.measure(TableScanNode(indexed_table, [PA]))
    assert run.aborted
    assert run.n_rows == -1


def test_measured_run_io_stats(indexed_table, env):
    runner = PlanRunner(env)
    run = runner.measure(TableScanNode(indexed_table, [PA]))
    assert run.io.pages_read >= indexed_table.n_pages


# ---------------------------------------------------------------------------
# rid-set kernel call sites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [SORTED_BITMAP_FETCH, NAIVE_FETCH], ids=str)
@pytest.mark.parametrize("tamper", ["drop", "swap"])
def test_verify_only_check_fires_on_tampered_rid_set(
    indexed_table, env, strategy, tamper
):
    from repro.executor.context import ExecContext
    from repro.executor.fetch import FetchStrategy
    from repro.executor.results import Result

    class Tampering(FetchStrategy):
        def fetch(self, ctx, table, rids, columns, residual=None):
            fetched = super().fetch(ctx, table, rids, columns, residual).rids
            if tamper == "drop":
                return Result(fetched[1:])
            missing = np.setdiff1d(np.arange(table.n_rows), fetched)[0]
            return Result(np.concatenate([fetched[1:], [missing]]))

    plan = FetchNode(
        CompositeRangeRidsNode(indexed_table.indexes["idx_ab"], PA, PB),
        indexed_table,
        Tampering(strategy.name, strategy.sort_rids, strategy.coalesce),
        verify_only=True,
    )
    with pytest.raises(PlanError, match="changed the rid set"):
        plan.execute(ExecContext(env))


@pytest.mark.parametrize("algorithm", ["merge", "hash"])
def test_rid_intersect_rejects_duplicate_child_rids(indexed_table, env, algorithm):
    from repro.executor.context import ExecContext
    from repro.executor.plans import PlanNode
    from repro.executor.results import Result

    class Doubled(PlanNode):
        """An index scan that hands every rid up twice."""

        def __init__(self, child):
            self.child = child

        def execute(self, ctx):
            result = self.child.execute(ctx)
            return Result(np.concatenate([result.rids, result.rids]))

    idx_a, idx_b = indexed_table.indexes["idx_a"], indexed_table.indexes["idx_b"]
    plan = RidIntersectNode(
        Doubled(IndexRangeRidsNode(idx_a, PA)), IndexRangeRidsNode(idx_b, PB), algorithm
    )
    with pytest.raises(PlanError, match="duplicate"):
        plan.execute(ExecContext(env))


#: (plan, seconds.hex(), pages_read, pages_written, seeks, sequential,
#: settled, random, pool hits, misses, evictions) of every rid-list plan
#: run under half its uncensored cost with a 4 KiB workspace — recorded on
#: the commit *before* the rid-set kernel (np.intersect1d / np.unique /
#: stable argsort payloads).  The kernel changes host arrays only, so the
#: abort clock and every counter must stay exactly these.
CENSORED_AT_PARENT = [
    ("merge", "0x1.2557846bc1292p-5", 113, 55, 6, 54, 0, 6, 0, 2, 0),
    ("hash_left", "0x1.16bd2b6f19935p-5", 113, 55, 6, 54, 0, 6, 0, 2, 0),
    ("hash_right", "0x1.1688524978efep-5", 113, 55, 6, 54, 0, 6, 0, 2, 0),
    ("b_bitmap", "0x1.1320ef0dea4e7p-7", 31, 0, 2, 29, 0, 2, 0, 1, 0),
    ("b_naive", "0x1.883758b1c7e4bp-1", 386, 0, 182, 27, 177, 182, 0, 1, 0),
    ("c_mdam", "0x1.4fbc2ae90cc97p-8", 30, 0, 1, 29, 0, 1, 0, 0, 0),
    ("c_mdam_ba", "0x1.4a109a5703c7ep-8", 26, 0, 1, 25, 0, 1, 0, 0, 0),
    ("cover_merge", "0x1.2794a57bf4da0p-5", 181, 90, 5, 88, 0, 5, 0, 1, 0),
    ("cover_hash", "0x1.0dd8251a96af3p-5", 181, 90, 5, 88, 0, 5, 0, 1, 0),
]


@pytest.mark.parametrize("expected", CENSORED_AT_PARENT, ids=lambda row: row[0])
def test_budget_censored_cell_aborts_where_the_parent_did(plans, env, expected):
    table, plan_dict = plans
    rids_b = IndexRangeRidsNode(table.indexes["idx_b"], PB)
    idx_val = table.indexes["idx_val"]
    plan_dict["cover_merge"] = CoveringRidJoinNode(rids_b, idx_val, "merge")
    plan_dict["cover_hash"] = CoveringRidJoinNode(rids_b, idx_val, "hash", "index")
    name, seconds_hex, *counters = expected
    plan = plan_dict[name]
    uncensored = PlanRunner(env, memory_bytes=4096).measure(plan)
    assert not uncensored.aborted
    pool_before = astuple(env.pool.stats)
    run = PlanRunner(
        env, memory_bytes=4096, budget_seconds=uncensored.seconds * 0.5
    ).measure(plan)
    pool = [now - was for now, was in zip(astuple(env.pool.stats), pool_before)]
    assert run.aborted and run.n_rows == -1
    assert run.seconds.hex() == seconds_hex
    io = run.io
    assert [
        io.pages_read, io.pages_written, io.seeks,
        io.sequential_reads, io.settled_reads, io.random_reads,
        *pool,  # hits, misses, evictions
    ] == counters
