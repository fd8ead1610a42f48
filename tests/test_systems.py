"""Tests for the three system configurations (plan inventory + agreement)."""

import gc
import json
import weakref
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchConfig, BenchSession, MapRequest
from repro.errors import PlanError
from repro.executor.plans import TableScanNode
from repro.executor.predicates import ColumnRange
from repro.systems import SystemA, SystemB, SystemC, SystemConfig, build_three_systems
from repro.workloads import LineitemConfig, SinglePredicateQuery, TwoPredicateQuery

DATA = Path(__file__).parent / "data"

SMALL = SystemConfig(lineitem=LineitemConfig(n_rows=4096), pool_pages=64)


@pytest.fixture(scope="module")
def systems():
    return build_three_systems(SMALL)


@pytest.fixture(scope="module")
def two_pred_query(systems):
    return TwoPredicateQuery(
        ColumnRange("partkey", 0, 200_000),
        ColumnRange("extendedprice", 0, 600_000),
    )


def test_three_systems_share_data(systems):
    base = systems["A"].table.column("partkey")
    for name in ("B", "C"):
        assert np.array_equal(systems[name].table.column("partkey"), base)


def test_systems_have_separate_environments(systems):
    envs = {id(system.env) for system in systems.values()}
    assert len(envs) == 3


def test_system_a_has_7_two_predicate_plans(systems, two_pred_query):
    plans = systems["A"].two_predicate_plans(two_pred_query)
    assert len(plans) == 7
    assert all(plan_id.startswith("A.") for plan_id in plans)


def test_system_b_has_4_plans(systems, two_pred_query):
    assert len(systems["B"].two_predicate_plans(two_pred_query)) == 4


def test_system_c_has_4_plans(systems, two_pred_query):
    assert len(systems["C"].two_predicate_plans(two_pred_query)) == 4


def test_15_distinct_plans_across_systems(systems, two_pred_query):
    all_ids = [
        plan_id
        for system in systems.values()
        for plan_id in system.two_predicate_plans(two_pred_query)
    ]
    assert len(all_ids) == len(set(all_ids)) == 15


def test_all_systems_agree_on_results(systems, two_pred_query):
    table = systems["A"].table
    a, b = two_pred_query.predicate_a, two_pred_query.predicate_b
    expected = np.count_nonzero(
        a.mask(table.column(a.column)) & b.mask(table.column(b.column))
    )
    for system in systems.values():
        runner = system.runner()
        for plan_id, plan in system.two_predicate_plans(two_pred_query).items():
            run = runner.measure(plan)
            assert run.n_rows == expected, plan_id


def test_system_a_single_predicate_plans(systems):
    query = SinglePredicateQuery(ColumnRange("extendedprice", 0, 500_000))
    plans = systems["A"].single_predicate_plans(query)
    assert len(plans) == 7
    assert {"A.table_scan", "A.idx_traditional", "A.idx_improved"} <= set(plans)


def test_single_predicate_wrong_column_rejected(systems):
    query = SinglePredicateQuery(ColumnRange("partkey", 0, 10))
    with pytest.raises(ValueError):
        systems["A"].single_predicate_plans(query)


def test_b_and_c_have_no_single_predicate_plans(systems):
    query = SinglePredicateQuery(ColumnRange("extendedprice", 0, 10))
    for name in ("B", "C"):
        with pytest.raises(PlanError):
            systems[name].single_predicate_plans(query)


def test_system_b_plans_fetch_base_rows(systems, two_pred_query):
    """MVCC: every B plan must touch table pages (verify-only fetch)."""
    system = systems["B"]
    table_handle = system.table.handle
    for plan_id, plan in system.two_predicate_plans(two_pred_query).items():
        system.env.cold_reset()
        before = system.env.disk.stats.snapshot()
        run = system.runner().measure(plan)
        assert not run.aborted
        # Either the disk stats delta shows base-table access or the pool
        # registered it: rely on pages read being more than index-only.
        assert run.io.pages_read > 0, plan_id


def test_system_c_plans_never_fetch(systems, two_pred_query):
    """Covering plans read only the composite index file."""
    system = systems["C"]
    data_pages = system.table.n_pages
    for plan_id, plan in system.two_predicate_plans(two_pred_query).items():
        run = system.runner().measure(plan)
        index_pages = max(
            system.idx_ab.n_leaf_pages, system.idx_ba.n_leaf_pages
        )
        assert run.io.pages_read <= index_pages + 10, plan_id


def test_qualify(systems):
    assert systems["A"].qualify("x") == "A.x"


def test_system_descriptions():
    assert "MDAM" in SystemC.description
    assert "bitmap" in SystemB.description.lower()
    assert "single-column" in SystemA.description


# ---------------------------------------------------------------------------
# secondary indexes are built by the first plan that executes over them
# ---------------------------------------------------------------------------


def all_plans(systems, quantile=0.3):
    """Every forced plan of the two query templates, by plan id."""
    table = systems["A"].table
    pa, pb = (
        ColumnRange(column, 0, int(np.quantile(table.column(column), quantile)))
        for column in ("partkey", "extendedprice")
    )
    plans = {}
    for system in systems.values():
        plans.update(system.plans_for(TwoPredicateQuery(pa, pb)))
    single = systems["A"].plans_for(SinglePredicateQuery(pb))
    plans.update({f"single:{plan_id}": plan for plan_id, plan in single.items()})
    return plans


def test_building_systems_and_plans_lays_out_no_tree(bulk_loads):
    systems = build_three_systems(SMALL)
    assert len(all_plans(systems)) == 15 + 7
    assert bulk_loads == []
    # A table scan's data pages are arithmetic: it lays out no tree.
    system = systems["A"]
    system.runner().measure(TableScanNode(system.table, []))
    assert bulk_loads == []


def test_a_map_builds_only_the_indexes_its_plans_execute(tmp_path, bulk_loads):
    config = BenchConfig(
        n_rows=2048, min_exp_1d=-4, pool_pages=32, cell_cache_dir=str(tmp_path)
    )
    cold = BenchSession(config).request_map(MapRequest("single_predicate"))
    # Measured on System A alone, over extendedprice: its partkey index
    # was never sorted, and no System B or C was built.
    assert sorted(bulk_loads) == ["lineitem.idx_b", "lineitem.idx_project"]
    del bulk_loads[:]
    warm_session = BenchSession(config)
    warm = warm_session.request_map(MapRequest("single_predicate"))
    assert warm_session.cell_store().cell_misses == 0
    assert np.array_equal(warm.times, cold.times, equal_nan=True)
    # Answered from the store: System A's table for the budget
    # yardstick, no tree.
    assert bulk_loads == []


@settings(max_examples=8, deadline=None)
@given(
    n_rows=st.integers(min_value=300, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_first_use_order_changes_no_measurement(n_rows, seed, data):
    """Every column drawn and every index touched up front vs. first
    touched mid-measurement, in any plan order: same clocks, same
    counters, same files."""
    config = SystemConfig(
        lineitem=LineitemConfig(n_rows=n_rows, seed=seed), pool_pages=32
    )
    eager, lazy = build_three_systems(config), build_three_systems(config)
    for system in eager.values():
        list(system.table.columns.values())  # draws every column
        for index in system.table.indexes.values():
            assert index.tree.flat.n_entries == n_rows
    plan_ids = sorted(all_plans(eager))
    order = data.draw(st.permutations(plan_ids))
    # The yardstick runs on both sides: DiskStats deltas are differences
    # of running float sums, so the histories have to match.
    (budget,) = {
        3 * systems["A"].runner().measure(all_plans(systems)["A.table_scan"]).seconds
        for systems in (eager, lazy)
    }  # tight enough that the naive fetches abort

    def measure(systems):
        plans = all_plans(systems)
        runs = {}
        for plan_id in order:
            system = systems[plan_id.removeprefix("single:")[0]]
            pool_before = astuple(system.env.pool.stats)
            run = system.runner(budget_seconds=budget).measure(plans[plan_id])
            runs[plan_id] = (
                run.seconds.hex(),
                run.n_rows,
                run.aborted,
                run.io,
                [now - was for now, was in zip(astuple(system.env.pool.stats), pool_before)],
            )
        return runs

    assert measure(lazy) == measure(eager)
    for name, system in lazy.items():
        assert {
            index.name: (tree.handle.file_id, tree.n_pages, tree.height)
            for index in system.table.indexes.values()
            for tree in [index.tree]
        } == {
            index.name: (tree.handle.file_id, tree.n_pages, tree.height)
            for index in eager[name].table.indexes.values()
            for tree in [index.tree]
        }


def test_b_and_c_share_one_sorted_layout_per_composite_key():
    """System B's and System C's trees over one key hold one pair of
    arrays, each tree in its own system's file; and B measures what a
    System B built alone, over its own columns, measures."""
    systems = build_three_systems(SMALL)
    b, c = systems["B"], systems["C"]
    for name in ("idx_ab", "idx_ba"):
        tree_b, tree_c = b.table.indexes[name].tree, c.table.indexes[name].tree
        assert tree_b.flat.keys is tree_c.flat.keys
        assert tree_b.flat.payload["rid"] is tree_c.flat.payload["rid"]
        assert tree_b.handle is not tree_c.handle
    assert b.idx_ab.tree.flat.keys is not b.idx_ba.tree.flat.keys
    alone = SystemB(SMALL)
    plans, plans_alone = all_plans(systems), all_plans({"A": systems["A"], "B": alone})
    for plan_id in [plan_id for plan_id in plans if plan_id.startswith("B.")]:
        runs = b.runner().measure(plans[plan_id]), alone.runner().measure(
            plans_alone[plan_id]
        )
        shared, own = (
            (run.seconds.hex(), run.n_rows, run.io, run.rid_checksum) for run in runs
        )
        assert shared == own


def _loaded_session(seed: int) -> BenchSession:
    session = BenchSession(
        BenchConfig(n_rows=2048, seed=seed, cache_dir=None, cell_cache_dir=None)
    )
    for system in session.systems.values():
        for index in system.table.indexes.values():
            index.tree  # noqa: B018 - the first read bulk-loads the tree
    return session


def test_shared_layouts_die_with_their_session():
    """The layouts B and C share live on the session's column mapping,
    not in a process-wide cache: dropping a session frees them, and
    sessions built one after another, each with its own seed, leave none
    behind."""
    session = _loaded_session(0)
    systems = session.systems
    keys = systems["B"].idx_ab.tree.flat.keys
    assert keys is systems["C"].idx_ab.tree.flat.keys
    alive = weakref.ref(keys)
    del keys, systems, session
    gc.collect()
    assert alive() is None
    refs = []
    for seed in range(1, 5):
        session = _loaded_session(seed)
        refs += [
            weakref.ref(array)
            for system in session.systems.values()
            for index in system.table.indexes.values()
            for array in (index.tree.flat.keys, index.tree.flat.payload["rid"])
        ]
    del session
    gc.collect()
    assert len(refs) == 4 * 14
    assert [ref for ref in refs if ref() is not None] == []


# ---------------------------------------------------------------------------
# the budget yardstick over a table built lazily
# ---------------------------------------------------------------------------


def test_the_budget_yardstick_keeps_its_recorded_seconds():
    """``table_scan_seconds`` at a few configs, bit for bit, as recorded
    when every table drew all its columns and laid out its leaf level at
    construction.  The budget is part of every cell-store key: one ulp
    of change would miss the whole store."""
    recorded = json.loads((DATA / "yardstick_seconds.json").read_text())
    for row in recorded:
        config = BenchConfig(
            n_rows=row["n_rows"],
            pool_pages=row["pool_pages"],
            seed=row["seed"],
            cache_dir=None,
            cell_cache_dir=None,
        )
        assert BenchSession(config).table_scan_seconds().hex() == row["seconds"], row


def test_the_budget_yardstick_draws_no_column(draws, bulk_loads):
    """System A draws its index key columns (each index's key check);
    the scan lays out no tree and draws nothing more."""
    session = BenchSession(
        BenchConfig(n_rows=2048, cache_dir=None, cell_cache_dir=None)
    )
    session.system_a  # noqa: B018 - builds the system
    assert sorted(draws) == ["extendedprice", "partkey", "suppkey"]
    assert bulk_loads == []
    session.table_scan_seconds()
    assert len(draws) == 3
    assert bulk_loads == []


@settings(max_examples=10, deadline=None)
@given(
    n_rows=st.integers(min_value=1 << 8, max_value=1 << 14),
    pool_pages=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_the_lazy_yardstick_is_a_scan_of_the_materialized_table(
    n_rows, pool_pages, seed
):
    """The yardstick over a table that has drawn nothing equals a scan
    of one whose columns are all drawn before the scan."""
    config = BenchConfig(
        n_rows=n_rows, pool_pages=pool_pages, seed=seed,
        cache_dir=None, cell_cache_dir=None,
    )
    system = SystemA(config.system_config())
    list(system.table.columns.values())  # draws every column
    run = system.runner().measure(TableScanNode(system.table, []))
    assert BenchSession(config).table_scan_seconds().hex() == run.seconds.hex()


# ---------------------------------------------------------------------------
# a store-warm map builds only what its keys and axes read
# ---------------------------------------------------------------------------


@pytest.fixture
def systems_built(monkeypatch) -> list[str]:
    """Names of the database systems constructed while the test runs."""
    from repro.systems.base import DatabaseSystem

    built: list[str] = []
    real = DatabaseSystem.__init__

    def recording(self, *args, **kwargs):
        built.append(self.name)
        real(self, *args, **kwargs)

    monkeypatch.setattr(DatabaseSystem, "__init__", recording)
    return built


WARM = dict(
    n_rows=2048, min_exp_1d=-4, min_exp_2d=-3, pool_pages=32, n_workers=0
)


def test_a_warm_two_predicate_map_draws_three_columns_and_no_mask(
    tmp_path, draws, bulk_loads, masks
):
    config = BenchConfig(**WARM, cache_dir=None, cell_cache_dir=str(tmp_path))
    cold = BenchSession(config).request_map(MapRequest("two_predicate"))
    del draws[:], bulk_loads[:], masks[:]
    warm_session = BenchSession(config)
    warm = warm_session.request_map(MapRequest("two_predicate"))
    assert warm_session.cell_store().cell_misses == 0
    assert warm.to_dict() == cold.to_dict()
    # partkey and extendedprice for the predicates, suppkey for
    # idx_project's key check; the yardstick draws nothing more.
    assert sorted(draws) == ["extendedprice", "partkey", "suppkey"]
    assert bulk_loads == []
    assert masks == []


def test_warm_choice_maps_load_no_index_tree(tmp_path, bulk_loads):
    """The choice maps' cost model reads each index's leaf pages and
    height from its row count: over a warm store, pricing every cell's
    plans sorts no index, and the maps are a cold session's."""
    config = BenchConfig(
        **WARM, cache_dir=None, cell_cache_dir=str(tmp_path),
        error_magnitudes=(0.0, 1.0, 3.0),
    )
    cold = BenchSession(config).choice_maps()
    del bulk_loads[:]
    warm_session = BenchSession(config)
    warm = warm_session.choice_maps()
    assert warm_session.cell_store().cell_misses == 0
    # No tree: the budget yardstick's scan is arithmetic, and no index.
    assert bulk_loads == []
    assert set(warm) == set(cold)
    for name, choice_map in warm.items():
        assert choice_map.plan_ids == cold[name].plan_ids
        assert np.array_equal(choice_map.choices, cold[name].choices)
        assert np.array_equal(choice_map.regret, cold[name].regret, equal_nan=True)


def test_a_warm_single_predicate_map_builds_no_system_b_or_c(
    tmp_path, systems_built
):
    config = BenchConfig(**WARM, cache_dir=None, cell_cache_dir=str(tmp_path))
    BenchSession(config).request_map(MapRequest("single_predicate"))
    assert systems_built == ["A"]
    del systems_built[:]
    warm_session = BenchSession(config)
    warm_session.request_map(MapRequest("single_predicate"))
    assert warm_session.cell_store().cell_misses == 0
    assert systems_built == ["A"]
