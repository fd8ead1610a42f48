"""Unit tests for the three fetch strategies."""

import numpy as np
import pytest

from repro.executor.context import CostBudgetExceeded, ExecContext
from repro.executor.fetch import (
    ADAPTIVE_PREFETCH,
    NAIVE_FETCH,
    SORTED_BITMAP_FETCH,
)
from repro.executor.plans import TableScanNode
from repro.executor.predicates import ColumnRange


ALL_STRATEGIES = [NAIVE_FETCH, SORTED_BITMAP_FETCH, ADAPTIVE_PREFETCH]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_fetch_returns_requested_columns(strategy, env, table, rng):
    ctx = ExecContext(env)
    rids = rng.choice(table.n_rows, 200, replace=False)
    result = strategy.fetch(ctx, table, rids, columns=["val"])
    assert set(result.rids.tolist()) == set(rids.tolist())
    assert np.array_equal(result.columns["val"], table.column("val")[result.rids])


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_fetch_applies_residual(strategy, env, table, rng):
    ctx = ExecContext(env)
    rids = rng.choice(table.n_rows, 500, replace=False)
    residual = ColumnRange("val", 0, 100)
    result = strategy.fetch(ctx, table, rids, columns=["a"], residual=[residual])
    expected = [rid for rid in rids if table.column("val")[rid] <= 100]
    assert set(result.rids.tolist()) == set(expected)


def test_fetch_empty_rids(env, table):
    ctx = ExecContext(env)
    result = NAIVE_FETCH.fetch(ctx, table, np.array([], dtype=np.int64), ["a"])
    assert result.n_rows == 0


def test_sorted_strategies_return_rid_order(env, table, rng):
    ctx = ExecContext(env)
    rids = rng.permutation(table.n_rows)[:300]
    result = SORTED_BITMAP_FETCH.fetch(ctx, table, rids, columns=["a"])
    assert np.all(np.diff(result.rids) > 0)


@pytest.mark.parametrize(
    "strategy", [SORTED_BITMAP_FETCH, ADAPTIVE_PREFETCH], ids=lambda s: s.name
)
@pytest.mark.parametrize("memory_bytes, spills", [(24 * 16, False), (1, True)])
def test_sorted_fetch_sorts_rids_when_the_bitmap_does_not_fit(
    strategy, memory_bytes, spills, env, table, rng
):
    """A workspace below the bitmap's ``n_rows / 8`` bytes sorts the rids
    instead (spilling them once when that grant fails too): the same
    rows in the same order, and no ``PlanError``."""
    rids = np.concatenate([rng.permutation(table.n_rows)[:12]] * 2)
    assert memory_bytes < (table.n_rows + 7) // 8
    expected = strategy.fetch(ExecContext(env), table, rids, columns=["a"])
    spilled = env.temp.pages_spilled
    result = strategy.fetch(
        ExecContext(env, memory_bytes=memory_bytes), table, rids, columns=["a"]
    )
    assert np.array_equal(result.rids, expected.rids)
    assert np.array_equal(result.columns["a"], expected.columns["a"])
    assert (env.temp.pages_spilled > spilled) == spills


def test_naive_much_slower_for_many_scattered_rows(env, table, rng):
    """The core Fig 1 economics: naive >> sorted >> nothing."""
    rids = rng.choice(table.n_rows, 1500, replace=False)
    costs = {}
    for strategy in ALL_STRATEGIES:
        env.cold_reset()
        ctx = ExecContext(env)
        start = env.clock.now
        strategy.fetch(ctx, table, rids, columns=["a"])
        costs[strategy.name] = env.clock.now - start
    assert costs["naive"] > 5 * costs["sorted-bitmap"]
    assert costs["adaptive-prefetch"] <= costs["sorted-bitmap"] + 1e-12


def test_adaptive_close_to_scan_at_full_density(env, table):
    """Fetching every row degrades into a bounded-overhead partial scan."""
    all_rids = np.arange(table.n_rows)
    env.cold_reset()
    ctx = ExecContext(env)
    start = env.clock.now
    ADAPTIVE_PREFETCH.fetch(ctx, table, all_rids, columns=["a"])
    fetch_all = env.clock.now - start

    env.cold_reset()
    start = env.clock.now
    TableScanNode(table, []).execute(ExecContext(env))
    scan = env.clock.now - start
    assert fetch_all < 10 * scan


def test_naive_fetch_respects_budget(env, table, rng):
    ctx = ExecContext(env, budget_seconds=1e-3)
    ctx.arm_budget()
    rids = rng.choice(table.n_rows, 3000, replace=False)
    with pytest.raises(CostBudgetExceeded):
        NAIVE_FETCH.fetch(ctx, table, rids, columns=["a"])


def test_naive_benefits_from_warm_pool(env, table):
    """Re-fetching the same rows hits the buffer pool."""
    rids = np.arange(50)
    ctx = ExecContext(env)
    env.cold_reset()
    start = env.clock.now
    NAIVE_FETCH.fetch(ctx, table, rids, columns=["a"])
    cold = env.clock.now - start
    start = env.clock.now
    NAIVE_FETCH.fetch(ctx, table, rids, columns=["a"])
    warm = env.clock.now - start
    assert warm < cold / 5


def test_strategy_names():
    assert {s.name for s in ALL_STRATEGIES} == {
        "naive",
        "sorted-bitmap",
        "adaptive-prefetch",
    }
