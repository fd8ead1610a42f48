"""Property and unit tests for MDAM scans."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PlanError
from repro.executor.context import ExecContext
from repro.executor.mdam import _positions_from_spans, mdam_scan
from repro.sim.profile import DeviceProfile
from repro.storage import StorageEnv, Table


def build(a_vals, b_vals):
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=64)
    table = Table(env, "t", {"a": np.asarray(a_vals), "b": np.asarray(b_vals)})
    index = table.create_index("idx_ab", ["a", "b"])
    return env, table, index


def test_positions_from_spans():
    starts = np.array([0, 5, 9])
    ends = np.array([2, 5, 12])
    assert _positions_from_spans(starts, ends).tolist() == [0, 1, 9, 10, 11]


def test_positions_from_spans_empty():
    assert _positions_from_spans(np.array([3]), np.array([3])).size == 0


def test_mdam_requires_composite_index(indexed_table, env):
    ctx = ExecContext(env)
    with pytest.raises(PlanError):
        mdam_scan(ctx, indexed_table.indexes["idx_a"], (0, 1), (0, 1))


def test_mdam_matches_brute_force_basic():
    rng = np.random.default_rng(3)
    env, table, index = build(
        rng.integers(0, 50, 3000), rng.integers(0, 10000, 3000)
    )
    ctx = ExecContext(env)
    result = mdam_scan(ctx, index, (10, 30), (2000, 7000))
    mask = (
        (table.column("a") >= 10)
        & (table.column("a") <= 30)
        & (table.column("b") >= 2000)
        & (table.column("b") <= 7000)
    )
    assert set(result.rids.tolist()) == set(np.flatnonzero(mask).tolist())
    assert np.array_equal(result.columns["a"], table.column("a")[result.rids])


def test_mdam_empty_leading_range():
    env, _table, index = build(np.array([1, 2, 3]), np.array([1, 2, 3]))
    ctx = ExecContext(env)
    result = mdam_scan(ctx, index, (10, 20), (0, 10))
    assert result.n_rows == 0


def test_mdam_empty_trailing_range():
    env, _table, index = build(np.array([1, 2, 3]), np.array([10, 20, 30]))
    ctx = ExecContext(env)
    result = mdam_scan(ctx, index, (1, 3), (100, 200))
    assert result.n_rows == 0


def test_mdam_skips_leaves_on_selective_trailing():
    """With coarse leading groups, a selective trailing range reads far
    fewer pages than the bounding range scan — the MDAM advantage."""
    rng = np.random.default_rng(5)
    n = 20000
    env, table, index = build(rng.integers(0, 16, n), rng.integers(0, 1 << 20, n))

    env.cold_reset()
    ctx = ExecContext(env)
    before = env.disk.stats.pages_read
    mdam_scan(ctx, index, (0, 15), (0, 1000))
    mdam_pages = env.disk.stats.pages_read - before

    env.cold_reset()
    before = env.disk.stats.pages_read
    index.read_range(*index.key_range_for({"a": (0, 15)}))
    full_pages = env.disk.stats.pages_read - before
    assert mdam_pages < full_pages / 4


def test_mdam_bounded_by_index_scan_cost():
    """Even in the worst case MDAM costs about one covering index scan."""
    rng = np.random.default_rng(6)
    n = 20000
    env, table, index = build(
        rng.integers(0, 1 << 20, n), rng.integers(0, 1 << 20, n)
    )
    env.cold_reset()
    ctx = ExecContext(env)
    start = env.clock.now
    mdam_scan(ctx, index, (0, (1 << 20) - 1), (0, (1 << 20) - 1))
    mdam_cost = env.clock.now - start

    env.cold_reset()
    start = env.clock.now
    index.scan_all()
    scan_cost = env.clock.now - start
    assert mdam_cost < 25 * scan_cost


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n_rows=st.integers(10, 400),
    a_card=st.integers(1, 40),
)
def test_mdam_matches_brute_force_property(data, n_rows, a_card):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, a_card, n_rows)
    b = rng.integers(0, 1000, n_rows)
    env, table, index = build(a, b)
    a_lo = data.draw(st.integers(0, a_card - 1))
    a_hi = data.draw(st.integers(a_lo, a_card - 1))
    b_lo = data.draw(st.integers(0, 999))
    b_hi = data.draw(st.integers(b_lo, 999))
    ctx = ExecContext(env)
    result = mdam_scan(ctx, index, (a_lo, a_hi), (b_lo, b_hi))
    mask = (a >= a_lo) & (a <= a_hi) & (b >= b_lo) & (b <= b_hi)
    assert sorted(result.rids.tolist()) == sorted(np.flatnonzero(mask).tolist())
