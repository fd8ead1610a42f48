"""Charge-equivalence of the batched execution core.

The vectorized kernels (``plan_many``, ``probe_many``, ``advance_many``,
``merge_read_all``) must be *bit-identical* to the per-item loops they
replace: same virtual seconds, same hit/miss/eviction counts, same
eviction victims, same final LRU order.  These tests pin that invariant
property-style against the loops, including the adversarial regimes
(thrashing pools, capacity-1, duplicate keys, traces the LRU kernel
declines).

Whole plans have one execution path; their reference is
``tests/data/reference_measurements.json``, recorded from the per-item
operator paths before those were deleted.  Each plan test measures the
plan and compares every recorded field exactly, censored runs included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ExecutionError, StorageError
from repro.executor import (
    ColumnRange,
    ExecContext,
    NAIVE_FETCH,
    PlanRunner,
    TableScanNode,
    FetchNode,
    IndexRangeRidsNode,
    ExternalSortNode,
)
from repro.executor.joins import join_plan_inventory
from repro.sim.clock import SimClock
from repro.sim.disk import Disk
from repro.sim.profile import DeviceProfile
from repro.storage.btree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.env import StorageEnv
from tests.conftest import REFERENCE_MEASUREMENTS as REFERENCE


def make_table(env, n_rows=4096, seed=7):
    """Three-column integer table (mirrors the shared test fixture)."""
    from repro.storage.table import Table

    generator = np.random.default_rng(seed)
    columns = {
        "a": generator.integers(0, 1 << 16, n_rows),
        "b": generator.integers(0, 1 << 20, n_rows),
        "val": generator.integers(0, 1000, n_rows),
    }
    return Table(env, "t", columns)


# ---------------------------------------------------------------------------
# SimClock.advance_many / ExecContext.charge_many
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=100))
def test_advance_many_bit_identical_to_loop(amounts):
    loop, batched = SimClock(), SimClock()
    for amount in amounts:
        loop.advance(amount)
    batched.advance_many(np.asarray(amounts, dtype=np.float64))
    assert batched.now == loop.now  # exact, not approx


def test_advance_many_rejects_negative():
    clock = SimClock()
    with pytest.raises(ExecutionError):
        clock.advance_many(np.array([1.0, -0.5]))


def test_charge_many_matches_charge_loop():
    def fresh_ctx():
        env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=8)
        return ExecContext(env)

    counts = [0, 17, 3, 0, 256]
    unit = [1e-7, 3e-9, 2.5e-8, 1e-6, 7e-9]
    a = fresh_ctx()
    for n, c in zip(counts, unit):
        a.charge(n, c)
    b = fresh_ctx()
    b.charge_many(np.asarray(counts), np.asarray(unit))
    assert b.clock.now == a.clock.now


def test_charge_many_rejects_misaligned():
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=8)
    ctx = ExecContext(env)
    with pytest.raises(ExecutionError):
        ctx.charge_many(np.array([1, 2]), np.array([1e-9]))


# ---------------------------------------------------------------------------
# plan_many + charge_planned_reads_strided + commit_many == loop of get
# ---------------------------------------------------------------------------


def get_many(pool, handle, pages):
    """Charge a page trace the way the naive fetch does, as one slice:
    the kernel's plan when it takes the trace, else the ``get`` loop."""
    pages = np.asarray(pages, dtype=np.int64)
    planned = pool.plan_many(handle, pages)
    if planned is None:
        for page in pages.tolist():
            pool.get(handle, page)
        return
    pool.charge_planned_reads_strided(
        handle, planned, max(1, pages.size), lambda: None
    )
    pool.commit_many(planned)


def make_pools(capacity):
    """Two independent (pool, handle) pairs with identical geometry."""
    pairs = []
    for _ in range(2):
        disk = Disk(SimClock(), DeviceProfile())
        pool = BufferPool(disk, capacity)
        pairs.append((pool, disk.create_file("f")))
    return pairs


def assert_pools_identical(a, b):
    assert a.stats.hits == b.stats.hits
    assert a.stats.misses == b.stats.misses
    assert a.stats.evictions == b.stats.evictions
    # Same resident set in the same LRU order (OrderedDict keeps it).
    assert list(a._resident) == list(b._resident)
    assert a._disk.clock.now == b._disk.clock.now


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(0, 30), max_size=300),
    st.integers(1, 8),
)
def test_get_many_equals_get_loop(pages, capacity):
    (ref_pool, ref_handle), (bat_pool, bat_handle) = make_pools(capacity)
    for page in pages:
        ref_pool.get(ref_handle, page)
    get_many(bat_pool, bat_handle, np.asarray(pages, dtype=np.int64))
    assert_pools_identical(ref_pool, bat_pool)


def test_get_many_capacity_one():
    (ref_pool, ref_handle), (bat_pool, bat_handle) = make_pools(1)
    pages = [0, 0, 1, 1, 1, 0, 2, 2, 0, 0, 0]
    for page in pages:
        ref_pool.get(ref_handle, page)
    get_many(bat_pool, bat_handle, np.asarray(pages))
    assert_pools_identical(ref_pool, bat_pool)


def test_get_many_long_hit_runs_through_kernel():
    # Long resident run, one interleaved miss, another long run: >= 8
    # accesses, none negative, so the LRU kernel takes the whole trace.
    (ref_pool, ref_handle), (bat_pool, bat_handle) = make_pools(16)
    warm = list(range(10))
    pages = warm * 20 + [99] + warm * 20
    assert bat_pool.plan_many(bat_handle, np.asarray(pages)) is not None
    for page in pages:
        ref_pool.get(ref_handle, page)
    get_many(bat_pool, bat_handle, np.asarray(pages))
    assert_pools_identical(ref_pool, bat_pool)


@settings(deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=7), st.integers(1, 4))
def test_get_many_short_traces_equal_get_loop(pages, capacity):
    # Traces down to the empty one, onto a pool that is already warm.
    (ref_pool, ref_handle), (bat_pool, bat_handle) = make_pools(capacity)
    for pool, handle in ((ref_pool, ref_handle), (bat_pool, bat_handle)):
        pool.get(handle, 0)
        pool.get(handle, 9)
    for page in pages:
        ref_pool.get(ref_handle, page)
    get_many(bat_pool, bat_handle, np.asarray(pages, dtype=np.int64))
    assert_pools_identical(ref_pool, bat_pool)
    assert bat_pool._disk.stats == ref_pool._disk.stats


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=8, max_size=200),
    st.integers(2, 6),
    st.data(),
)
def test_get_many_on_declined_trace_equals_get_loop(pages, capacity, data):
    # Long enough for the kernel, but a negative page number makes it
    # decline: the loop, which charges up to that page and raises there.
    pages.insert(data.draw(st.integers(0, len(pages))), -1)
    (ref_pool, ref_handle), (bat_pool, bat_handle) = make_pools(capacity)
    assert bat_pool.plan_many(bat_handle, np.asarray(pages)) is None
    with pytest.raises(StorageError, match="negative"):
        for page in pages:
            ref_pool.get(ref_handle, page)
    with pytest.raises(StorageError, match="negative"):
        get_many(bat_pool, bat_handle, np.asarray(pages, dtype=np.int64))
    assert_pools_identical(ref_pool, bat_pool)
    assert bat_pool._disk.stats == ref_pool._disk.stats


# ---------------------------------------------------------------------------
# BPlusTree.probe_many == loop of probe
# ---------------------------------------------------------------------------


def make_tree(pool_pages=256):
    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=pool_pages)
    return BPlusTree(env, "t", entry_bytes=64), env


def probe_reference(keys, build, pool_pages=256):
    """(clock, pool stats, match counts) from a loop of probe()."""
    tree, env = make_tree(pool_pages)
    build(tree)
    env.cold_reset()
    counts = []
    for key in keys:
        found, _ = tree.probe(int(key))
        counts.append(int(found.size))
    return env.clock.now, env.pool.stats, counts


def probe_batched(keys, build, pool_pages=256):
    tree, env = make_tree(pool_pages)
    build(tree)
    env.cold_reset()
    counts = tree.probe_many(np.asarray(keys, dtype=np.int64))
    return env.clock.now, env.pool.stats, counts.tolist()


def assert_probe_equivalent(keys, build, pool_pages=256):
    ref = probe_reference(keys, build, pool_pages)
    bat = probe_batched(keys, build, pool_pages)
    assert bat[0] == ref[0]  # exact virtual seconds
    assert bat[1] == ref[1]  # hits/misses/evictions
    assert bat[2] == ref[2]  # per-key match counts


def bulk_builder(keys, dupes=1):
    arr = np.sort(np.repeat(np.asarray(keys, dtype=np.int64), dupes))

    def build(tree):
        tree.bulk_load(arr, {"v": np.arange(arr.size, dtype=np.int64)})

    return build


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(-5, 600), min_size=1, max_size=120),
    st.integers(1, 3),
)
def test_probe_many_equals_probe_loop(probe_keys, dupes):
    build = bulk_builder(range(0, 500, 2), dupes=dupes)
    assert_probe_equivalent(probe_keys, build)


def test_probe_many_empty_tree():
    def build(tree):
        pass

    assert_probe_equivalent([1, 2, 3], build)


def test_probe_many_empty_keys():
    tree, env = make_tree()
    bulk_builder(range(100))(tree)
    env.cold_reset()
    before = env.clock.now
    counts = tree.probe_many(np.empty(0, dtype=np.int64))
    assert counts.size == 0
    assert env.clock.now == before


def test_probe_many_duplicates_span_leaves():
    # Heavy duplication forces continuation-leaf walks; keys at leaf
    # boundaries exercise the extra-leaf walk for no-match probes.
    build = bulk_builder([5] * 40 + [9] * 40 + [12], dupes=1)
    keys = [5, 9, 12, 0, 7, 13, 5, 5, 9]
    assert_probe_equivalent(keys, build)


def test_probe_many_thrashing_pool():
    # Pool smaller than one descent's worth of distinct pages: every
    # probe misses and evicts; batched path must replay, never batch.
    build = bulk_builder(range(2000))
    keys = [1, 1999, 3, 1501, 7, 1203] * 4
    assert_probe_equivalent(keys, build, pool_pages=2)


def test_probe_many_uncharged_counts_only():
    """No keys, no charge; any key is charged (there is no switch)."""
    tree, env = make_tree()
    bulk_builder(range(100), dupes=2)(tree)
    env.cold_reset()
    before = env.clock.now
    assert tree.probe_many(np.array([], dtype=np.int64)).tolist() == []
    assert env.clock.now == before
    counts = tree.probe_many(np.array([0, 3, 999]))
    assert counts.tolist() == [2, 2, 0]
    assert env.clock.now > before


# ---------------------------------------------------------------------------
# Whole-plan identity: measurements vs the recorded reference
# ---------------------------------------------------------------------------


def scan_plans(table):
    yield TableScanNode(table, [], project=["val"])
    yield TableScanNode(table, [ColumnRange("a", 100, 30000)], project=["val"])
    yield TableScanNode(
        table,
        [ColumnRange("a", 100, 30000), ColumnRange("b", 0, 1 << 19)],
        project=["val"],
    )
    yield FetchNode(
        IndexRangeRidsNode(table.indexes["idx_a"], ColumnRange("a", 200, 2400)),
        table,
        NAIVE_FETCH,
        project=["val"],
    )
    yield ExternalSortNode(table.column("b"), row_bytes=8)


def measure(make_plan, budget_seconds=None):
    """Measure one plan from a cold environment."""
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=64)
    table = make_table(env)
    table.create_index("idx_a", ["a"])
    runner = PlanRunner(env, memory_bytes=1 << 14, budget_seconds=budget_seconds)
    return runner.measure(make_plan(table))


def assert_run_matches(ref, run):
    """Every field of a reference record, exactly (floats included)."""
    assert run.seconds == ref["seconds"]  # exact virtual time
    assert run.aborted == ref["aborted"]
    assert run.n_rows == ref["n_rows"]
    assert run.rid_checksum == ref["rid_checksum"]
    assert dataclasses.asdict(run.io) == ref["io"]


@pytest.mark.parametrize("plan_index", range(5))
def test_plan_measurements_identical(plan_index):
    def make_plan(table):
        return list(scan_plans(table))[plan_index]

    assert_run_matches(REFERENCE["plans"][str(plan_index)], measure(make_plan))


@pytest.mark.parametrize("plan_index", range(5))
@pytest.mark.parametrize("fraction", [0.15, 0.4, 0.9])
def test_censored_plan_measurements_identical(plan_index, fraction):
    """Budget-aborted runs must abort where the reference aborted.

    Scans and naive fetches keep the reference's check cadence, so even
    the abort-point clock matches.  The external sort compacts the
    per-merge-round checks into the final one; its abort *decision* is
    unchanged (the final check sees the same clock, and the clock is
    monotone) but a run aborted at an intermediate round records a
    different — censored, hence unobservable — clock value.
    """

    def make_plan(table):
        return list(scan_plans(table))[plan_index]

    budget = REFERENCE["plans"][str(plan_index)]["seconds"] * fraction
    ref = REFERENCE["censored_plans"][f"{plan_index}@{fraction!r}"]
    run = measure(make_plan, budget_seconds=budget)
    assert ref["aborted"]  # the budget must actually bind
    assert run.aborted == ref["aborted"]
    if plan_index != 4:
        assert_run_matches(ref, run)


@pytest.mark.parametrize("fraction", [0.2, 0.6, 0.95])
def test_censored_inl_join_identical(fraction):
    """INL probes keep stride-boundary checks: censored runs match exactly."""
    build_keys = np.random.default_rng(5).integers(0, 400, 1200)
    probe_keys = np.random.default_rng(6).integers(0, 400, 3000)

    def run(budget_seconds):
        env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=64)
        runner = PlanRunner(env, budget_seconds=budget_seconds)
        plan = join_plan_inventory(build_keys, probe_keys)["join.inl"]
        return runner.measure(plan)

    baseline = REFERENCE["inl"]["uncensored"]
    assert_run_matches(baseline, run(None))
    ref = REFERENCE["inl"][repr(fraction)]
    assert ref["aborted"]
    assert_run_matches(ref, run(baseline["seconds"] * fraction))


def test_join_inventory_identical():
    build_keys = np.random.default_rng(11).integers(0, 500, 1500)
    probe_keys = np.random.default_rng(13).integers(0, 500, 4000)
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=64)
    runner = PlanRunner(env, memory_bytes=1 << 14)
    runs = {
        name: runner.measure(plan)
        for name, plan in join_plan_inventory(build_keys, probe_keys).items()
    }
    assert set(runs) == set(REFERENCE["join_inventory"])
    for name, run in runs.items():
        assert_run_matches(REFERENCE["join_inventory"][name], run)


def test_check_budget_every_matches_stride():
    env = StorageEnv(DeviceProfile(page_size=1024), pool_pages=8)
    ctx = ExecContext(env, budget_seconds=1e-12)
    ctx.arm_budget()
    env.clock.advance(1.0)
    from repro.executor.context import CostBudgetExceeded

    # Not at a stride boundary: no check, no raise.
    ctx.check_budget_every(0, 4)
    ctx.check_budget_every(2, 4)
    with pytest.raises(CostBudgetExceeded):
        ctx.check_budget_every(3, 4)  # done % stride == stride - 1
