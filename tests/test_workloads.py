"""Unit and property tests for data generation and selectivity targeting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.executor.predicates import ColumnRange
from repro.workloads import (
    LineitemConfig,
    PredicateBuilder,
    SinglePredicateQuery,
    TwoPredicateQuery,
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


def test_lineitem_unknown_column_rejected():
    with pytest.raises(WorkloadError):
        lineitem_columns(LineitemConfig(n_rows=10, extra_columns=("bogus",)))


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
    pa = ColumnRange("partkey", 0, 1 << 18)
    pb = ColumnRange("extendedprice", 0, 1 << 19)
    q2 = TwoPredicateQuery(pa, pb)
    expected = np.flatnonzero(
        pa.mask(table.column("partkey")) & pb.mask(table.column("extendedprice"))
    )
    assert np.array_equal(q2.oracle_rids(table), expected)
    q1 = SinglePredicateQuery(pb)
    assert np.array_equal(
        q1.oracle_rids(table), np.flatnonzero(pb.mask(table.column("extendedprice")))
    )
