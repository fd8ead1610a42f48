"""Unit and property tests for data generation and selectivity targeting."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.executor.predicates import ColumnRange
from repro.workloads import (
    LineitemConfig,
    PredicateBuilder,
    SinglePredicateQuery,
    build_lineitem,
)
from repro.workloads.generators import sequential_column, uniform_column
from repro.workloads.lineitem import lineitem_columns


def test_uniform_column_range(rng):
    values = uniform_column(rng, 10000, 100)
    assert values.min() >= 0 and values.max() < 100


def test_uniform_rejects_bad_domain(rng):
    with pytest.raises(WorkloadError):
        uniform_column(rng, 10, 0)


def test_sequential_column():
    assert sequential_column(5).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(WorkloadError):
        sequential_column(-1)


# ---------------------------------------------------------------------------
# lineitem
# ---------------------------------------------------------------------------


def test_lineitem_deterministic():
    c1 = lineitem_columns(LineitemConfig(n_rows=1000, seed=5))
    c2 = lineitem_columns(LineitemConfig(n_rows=1000, seed=5))
    for name in c1:
        assert np.array_equal(c1[name], c2[name]), name


def test_lineitem_seed_changes_data():
    c1 = lineitem_columns(LineitemConfig(n_rows=1000, seed=5))
    c2 = lineitem_columns(LineitemConfig(n_rows=1000, seed=6))
    assert not np.array_equal(c1["partkey"], c2["partkey"])


def test_lineitem_has_predicate_columns():
    columns = lineitem_columns(LineitemConfig(n_rows=100))
    assert "partkey" in columns and "extendedprice" in columns
    assert "suppkey" in columns


def test_lineitem_config_validation():
    with pytest.raises(WorkloadError):
        LineitemConfig(n_rows=0)


def test_build_lineitem_shares_columns(env):
    config = LineitemConfig(n_rows=500)
    columns = lineitem_columns(config)
    table = build_lineitem(env, config, columns)
    assert table.n_rows == 500
    assert np.array_equal(table.column("partkey"), columns["partkey"])


@settings(max_examples=15, deadline=None)
@given(order=st.permutations(["partkey", "extendedprice", *LineitemConfig().extra_columns]))
def test_lineitem_columns_read_in_any_order_are_the_same_columns(order):
    """Each column is drawn at its first read, in the RNG's order, so
    which columns are read first changes no value."""
    config = LineitemConfig(n_rows=300, seed=11)
    in_table_order = lineitem_columns(config)
    expected = {name: in_table_order[name] for name in in_table_order}
    columns = lineitem_columns(config)
    for name in order[: len(order) // 2]:
        assert np.array_equal(columns[name], expected[name]), name
    assert {name: columns[name].tolist() for name in columns} == {
        name: values.tolist() for name, values in expected.items()
    }


def test_lineitem_schema_reads_no_column(draws):
    columns = lineitem_columns(LineitemConfig(n_rows=100))
    assert len(columns) == 9 and "suppkey" in columns and "bogus" not in columns
    assert columns.n_rows == 100
    assert set(columns.dtypes.values()) == {np.dtype(np.int64)}
    assert draws == []
    columns["suppkey"]  # noqa: B018 - drawn after the two RNG columns before it
    assert draws == ["partkey", "extendedprice", "suppkey"]
    assert columns["suppkey"] is columns["suppkey"]
    assert len(draws) == 3


def test_lineitem_columns_drawn_by_racing_threads_are_drawn_once(draws):
    config = LineitemConfig(n_rows=5000, seed=3)
    columns = lineitem_columns(config)
    names = list(columns)
    with ThreadPoolExecutor(max_workers=4) as pool:
        read = list(pool.map(columns.__getitem__, names[::-1] * 2))
    assert sorted(draws) == sorted(["date"] * 2 + [
        name for name in names if name not in ("shipdate", "receiptdate")
    ])
    fresh = lineitem_columns(config)
    for name, values in zip(names[::-1] * 2, read):
        assert np.array_equal(values, fresh[name]), name


def test_lineitem_unknown_column_rejected():
    with pytest.raises(WorkloadError):
        lineitem_columns(LineitemConfig(n_rows=10, extra_columns=("bogus",)))
    for repeated in (("suppkey", "suppkey"), ("partkey",)):
        with pytest.raises(WorkloadError, match="repeated"):
            lineitem_columns(LineitemConfig(n_rows=10, extra_columns=repeated))


# ---------------------------------------------------------------------------
# selectivity
# ---------------------------------------------------------------------------


def test_predicate_builder_hits_targets(env):
    table = build_lineitem(env, LineitemConfig(n_rows=1 << 14))
    builder = PredicateBuilder(table, "extendedprice")
    for target in (2.0**-10, 2.0**-5, 0.25, 1.0):
        predicate, achieved = builder.range_for_selectivity(target)
        real = np.count_nonzero(predicate.mask(table.column("extendedprice"))) / table.n_rows
        assert real == pytest.approx(achieved)
        assert achieved == pytest.approx(target, rel=0.5) or achieved >= target


def test_predicate_builder_full_range(env):
    table = build_lineitem(env, LineitemConfig(n_rows=1000))
    builder = PredicateBuilder(table, "partkey")
    predicate, achieved = builder.range_for_selectivity(1.0)
    assert achieved == 1.0
    assert predicate.hi == table.column("partkey").max()


def test_predicate_builder_validates_target(env):
    table = build_lineitem(env, LineitemConfig(n_rows=100))
    builder = PredicateBuilder(table, "partkey")
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(WorkloadError):
            builder.range_for_selectivity(bad)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1.0))
def test_achieved_close_to_target_property(target):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 20, 1 << 13)

    class FakeTable:
        def column(self, _name):
            return values

    builder = PredicateBuilder.__new__(PredicateBuilder)
    builder.table = FakeTable()
    builder.column = "x"
    builder._sorted = np.sort(values)
    builder._n = values.size
    predicate, achieved = builder.range_for_selectivity(target)
    # Achieved row count is within one grid step of the ideal count.
    assert abs(achieved * values.size - target * values.size) <= max(
        2, 0.02 * target * values.size + 2
    )


def test_queries_oracle(env):
    table = build_lineitem(env, LineitemConfig(n_rows=2000))
    pb = ColumnRange("extendedprice", 0, 1 << 19)
    q1 = SinglePredicateQuery(pb)
    assert np.array_equal(
        q1.oracle_rids(table), np.flatnonzero(pb.mask(table.column("extendedprice")))
    )
