"""Property and unit tests for MDAM scans."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PlanError
from repro.executor.context import ExecContext
from repro.executor.mdam import mdam_scan
from repro.sim.profile import DeviceProfile
from repro.storage import StorageEnv, Table


def build(a_vals, b_vals):
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=64)
    table = Table(env, "t", {"a": np.asarray(a_vals), "b": np.asarray(b_vals)})
    index = table.create_index("idx_ab", ["a", "b"])
    return env, table, index


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


def _charged(env, scan, index, leading_range, trailing_range):
    """Clock, disk counters and result of one cold scan."""
    env.cold_reset()
    before = env.disk.stats.snapshot()
    result = scan(ExecContext(env), index, leading_range, trailing_range)
    return env.clock.now, vars(env.disk.stats.delta(before)), result


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n_rows=st.integers(1, 1500),
    a_card=st.one_of(st.integers(1, 8), st.integers(1, 300)),
    b_card=st.integers(1, 400),
)
def test_mdam_charges_what_searching_for_its_bounds_charged(
    data, n_rows, a_card, b_card
):
    """Counting each probe's bounds inside the decoded span charges
    exactly what searching the whole leaf level for them charged: same
    clock, every disk counter, same rids and columns in the same order.

    1 KiB pages hold few entries per leaf, so leading-value groups cross
    leaves; few leading values give long groups of duplicates, which a
    narrow trailing range turns into probes that jump over leaves, and
    many give near-singletons; the ranges may reach past the domain on
    either side or select no trailing value at all."""
    from tests.oracles import searchsorted_mdam_scan

    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.integers(0, a_card, n_rows)
    b = rng.integers(0, b_card, n_rows)
    env, _table, index = build(a, b)
    a_lo = data.draw(st.integers(-2, 2 * a_card))
    a_hi = data.draw(st.integers(a_lo, 2 * a_card + 2))
    b_lo = data.draw(st.integers(-2, 2 * b_card))
    b_width = data.draw(st.one_of(st.integers(-1, 4), st.integers(-1, 2 * b_card)))
    b_hi = b_lo + b_width
    ranges = ((a_lo, a_hi), (b_lo, b_hi))
    clock, stats, result = _charged(env, mdam_scan, index, *ranges)
    o_clock, o_stats, oracle = _charged(env, searchsorted_mdam_scan, index, *ranges)
    assert clock == o_clock
    assert stats == o_stats
    assert np.array_equal(result.rids, oracle.rids)
    assert result.rids.dtype == oracle.rids.dtype
    assert list(result.columns) == list(oracle.columns)
    for name, values in oracle.columns.items():
        assert np.array_equal(result.columns[name], values)
        assert result.columns[name].dtype == values.dtype
