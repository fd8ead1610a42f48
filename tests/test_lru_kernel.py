"""Property tests: the vectorized LRU kernel vs the scalar loop.

The kernel's contract (`repro.storage.lru_kernel`) is *exactness*: for
every trace it must reproduce the scalar ``get()`` loop's hit/miss
classification, eviction count, final LRU order, disk charges, and —
through `FetchStrategy._charge_naive` — the abort point of
budget-censored runs (against measurements recorded from the ``get``
loop in ``tests/data/reference_measurements.json``).  These tests pit
it against an independent OrderedDict reference (and against real
scalar pools) across the regimes that stress different kernel paths:
cold and pre-warmed pools, capacity-1 pools, multi-file residents and
segment-boundary straddling.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.storage.lru_kernel as lru_kernel
from repro.executor.context import CostBudgetExceeded, ExecContext
from repro.executor.fetch import _NAIVE_CHUNK, NAIVE_FETCH
from repro.sim.clock import SimClock
from repro.sim.disk import Disk
from repro.sim.profile import DeviceProfile
from repro.storage.btree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.lru_kernel import simulate_lru
from repro.storage import StorageEnv, Table
from tests.conftest import REFERENCE_MEASUREMENTS

#: Small pages so tiny tables still span many pages (matches conftest).
SMALL_PROFILE = DeviceProfile(page_size=1024, memory_bytes=1 << 20)


def make_table(env: StorageEnv, n_rows: int = 4096, seed: int = 7) -> Table:
    generator = np.random.default_rng(seed)
    return Table(
        env,
        "t",
        {
            "a": generator.integers(0, 1 << 16, n_rows),
            "b": generator.integers(0, 1 << 20, n_rows),
            "val": generator.integers(0, 1000, n_rows),
        },
    )


def scalar_lru(trace, resident, capacity):
    """Independent OrderedDict reference for :func:`simulate_lru`."""
    pool = OrderedDict((int(key), None) for key in resident)
    hits = np.zeros(len(trace), dtype=bool)
    evictions = 0
    for position, key in enumerate(trace):
        key = int(key)
        if key in pool:
            pool.move_to_end(key)
            hits[position] = True
        else:
            if len(pool) >= capacity:
                pool.popitem(last=False)
                evictions += 1
            pool[key] = None
    return hits, evictions, np.fromiter(pool, dtype=np.int64, count=len(pool))


def assert_matches_scalar(trace, resident, capacity):
    simulation = simulate_lru(
        np.asarray(trace, dtype=np.int64),
        np.asarray(resident, dtype=np.int64),
        capacity,
    )
    hits, evictions, final = scalar_lru(trace, resident, capacity)
    assert np.array_equal(simulation.hit_mask, hits)
    assert simulation.n_evictions == evictions
    assert np.array_equal(simulation.final_keys, final)


@st.composite
def lru_case(draw):
    capacity = draw(st.integers(1, 12))
    key_space = draw(st.integers(1, 20))
    trace = draw(st.lists(st.integers(0, key_space), max_size=300))
    # Pre-warmed pool: distinct keys, some from "other files" (negative
    # codes, the encoding plan_many uses for foreign residents).
    n_resident = draw(st.integers(0, min(capacity, key_space + 5)))
    resident = draw(
        st.lists(
            st.integers(-5, key_space),
            min_size=n_resident,
            max_size=n_resident,
            unique=True,
        )
    )
    return trace, resident, capacity


@given(lru_case())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_scalar_reference(case):
    trace, resident, capacity = case
    assert_matches_scalar(trace, resident, capacity)


@given(lru_case(), st.sampled_from([3, 7, 32]))
@settings(max_examples=150, deadline=None)
def test_kernel_exact_at_any_segment_size(case, segment):
    """Segmenting (state carry + saturation deferral) never changes results."""
    trace, resident, capacity = case
    before = lru_kernel._SEGMENT
    lru_kernel._SEGMENT = segment
    try:
        assert_matches_scalar(trace, resident, capacity)
    finally:
        lru_kernel._SEGMENT = before


@given(st.lists(st.integers(0, 30), max_size=120))
@settings(max_examples=150, deadline=None)
def test_kernel_capacity_one(trace):
    """Capacity-1 pools: every access misses unless it repeats its predecessor."""
    assert_matches_scalar(trace, [], 1)


def make_pools(capacity=8):
    """Two pools over separate disks, for batched-vs-scalar comparison."""
    pools = []
    for _ in range(2):
        disk = Disk(SimClock(), DeviceProfile())
        pool = BufferPool(disk, capacity)
        handles = (disk.create_file("a"), disk.create_file("b"))
        pools.append((pool, disk, handles))
    return pools


@given(
    st.lists(st.integers(0, 40), min_size=8, max_size=400),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 40)), max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_get_many_bitwise_equals_get_loop(trace, warm_accesses):
    """Pool-level identity, including multi-file pre-warmed residents."""
    (kernel_pool, kernel_disk, kernel_handles), (
        scalar_pool,
        scalar_disk,
        scalar_handles,
    ) = make_pools()
    for which, page in warm_accesses:
        kernel_pool.get(kernel_handles[which], page)
        scalar_pool.get(scalar_handles[which], page)
    pages = np.asarray(trace, dtype=np.int64)
    planned = kernel_pool.plan_many(kernel_handles[0], pages)
    kernel_pool.charge_planned_reads_strided(
        kernel_handles[0], planned, pages.size, lambda: None
    )
    kernel_pool.commit_many(planned)
    for page in pages:
        scalar_pool.get(scalar_handles[0], int(page))
    assert vars(kernel_pool.stats) == vars(scalar_pool.stats)
    assert kernel_disk.stats == scalar_disk.stats
    assert kernel_disk.clock.now == scalar_disk.clock.now
    assert [
        (file_id, page) for file_id, page in kernel_pool._resident
    ] == [(file_id, page) for file_id, page in scalar_pool._resident]


def test_plan_many_refuses_negative_pages():
    (pool, _disk, handles), _ = make_pools()
    assert pool.plan_many(handles[0], np.array([1, -2, 3])) is None


def _measure_naive_fetch(budget_seconds, n_rids=3000):
    """(clock seconds, disk stats, aborted) of one budgeted naive fetch."""
    env = StorageEnv(SMALL_PROFILE, pool_pages=64)
    table = make_table(env)
    rids = np.random.default_rng(5).choice(table.n_rows, n_rids, replace=False)
    env.cold_reset()
    ctx = ExecContext(env, budget_seconds=budget_seconds)
    ctx.arm_budget()
    aborted = False
    try:
        NAIVE_FETCH.fetch(ctx, table, rids, columns=["val"])
    except CostBudgetExceeded:
        aborted = True
    return env.clock.now, env.disk.stats, aborted


@pytest.mark.parametrize(
    "case, budget_seconds",
    [("uncensored", None), ("tight", 1e-3), ("mid", 5e-3), ("loose", 20e-3)],
    ids=["uncensored", "tight", "mid", "loose"],
)
def test_naive_fetch_abort_point_identity(case, budget_seconds):
    """Censored runs abort at the bitwise-identical point of the loop.

    The trace straddles many ``_NAIVE_CHUNK`` boundaries; the budgets are
    chosen so some runs abort mid-trace.  Clock and full disk statistics
    must agree exactly with the recorded ``get``-loop run at the abort
    (or completion) point.
    """
    reference = REFERENCE_MEASUREMENTS["naive_fetch"][case]
    clock, stats, aborted = _measure_naive_fetch(budget_seconds)
    assert (clock, dataclasses.asdict(stats), aborted) == (
        reference["clock"],
        reference["io"],
        reference["aborted"],
    )


def test_trace_straddles_chunk_boundaries():
    """Sanity: the abort-identity trace really crosses chunk boundaries."""
    env = StorageEnv(SMALL_PROFILE, pool_pages=64)
    table = make_table(env)
    assert table.n_rows > 2 * _NAIVE_CHUNK


# ---------------------------------------------------------------------------
# the one-pass path: traces that cannot fill the pool
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fitting_trace_plan_equals_get_loop(data):
    """plan_many/commit_many against the get loop on a trace whose page
    span fits beside the warm residents exactly (the one-pass path), or
    overshoots by one page (the segmented path), or is empty."""
    capacity = data.draw(st.integers(1, 16))
    warm = data.draw(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 24)), max_size=24)
    )
    (kernel_pool, kernel_disk, kernel_handles), (
        scalar_pool,
        scalar_disk,
        scalar_handles,
    ) = make_pools(capacity)
    for which, page in warm:  # file 1's pages become negative codes
        kernel_pool.get(kernel_handles[which], page)
        scalar_pool.get(scalar_handles[which], page)
    n_resident = len(scalar_pool._resident)
    over = data.draw(st.integers(0, 1))
    span = capacity - n_resident + over
    trace: list[int] = []
    if span > 0 and data.draw(st.booleans()):
        base = data.draw(st.integers(0, 20))
        trace = data.draw(
            st.lists(st.integers(base, base + span - 1), max_size=200)
        )
        for end in (base, base + span - 1):  # pin the span exactly
            trace.insert(data.draw(st.integers(0, len(trace))), end)
    pages = np.asarray(trace, dtype=np.int64)
    assert lru_kernel._fits(pages, np.zeros(n_resident), capacity) == (
        over == 0 or not trace
    )

    planned = kernel_pool.plan_many(kernel_handles[0], pages)
    kernel_pool.charge_planned_reads_strided(
        kernel_handles[0], planned, max(1, pages.size), lambda: None
    )
    kernel_pool.commit_many(planned)
    flags, evictions = [], scalar_pool.stats.evictions
    for page in trace:
        hits = scalar_pool.stats.hits
        scalar_pool.get(scalar_handles[0], page)
        flags.append(scalar_pool.stats.hits > hits)
    assert planned.simulation.hit_mask.tolist() == flags
    assert planned.simulation.n_evictions == (
        scalar_pool.stats.evictions - evictions
    )
    assert list(kernel_pool._resident) == list(scalar_pool._resident)
    assert vars(kernel_pool.stats) == vars(scalar_pool.stats)
    assert kernel_disk.stats == scalar_disk.stats
    assert kernel_disk.clock.now == scalar_disk.clock.now


_PROBE_STRIDE = 16


def _probe_until_censored(batched: bool, budget_seconds: float):
    """(last probe checked, clock, disk stats) of one budgeted probe run.

    A tree of 600 duplicate-heavy entries (79 pages) fits a 256-frame
    pool, so the batched run's trace takes the one-pass path."""
    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=256)
    tree = BPlusTree(env, "t", entry_bytes=64)
    keys = np.repeat(np.arange(0, 400, 2, dtype=np.int64), 3)
    tree.bulk_load(keys, {"rid": np.arange(keys.size, dtype=np.int64)})
    probes = np.random.default_rng(11).integers(-4, 404, 400)
    env.cold_reset()
    ctx = ExecContext(env, budget_seconds=budget_seconds)
    ctx.arm_budget()
    checked = []

    def check(done: int) -> None:
        checked.append(done)
        ctx.check_budget_every(done, _PROBE_STRIDE)

    try:
        if batched:
            tree.probe_many(probes, budget_check=check, budget_stride=_PROBE_STRIDE)
        else:
            for done, key in enumerate(probes.tolist()):
                tree.probe(key)
                check(done)
    except CostBudgetExceeded:
        pass
    return checked[-1], env.clock.now, env.disk.stats


def test_fitting_probe_trace_aborts_at_the_loops_probe():
    """Unsorted, duplicate-heavy probes on the one-pass path: a budget
    crossed mid-stride aborts the batch at the same probe, with the same
    clock and disk statistics, as the per-probe loop."""
    done, full_clock, _ = _probe_until_censored(False, float("inf"))
    assert done == 399
    budget = full_clock * 0.37  # crossed inside some stride, not at its end
    reference = _probe_until_censored(False, budget)
    assert reference[0] % _PROBE_STRIDE == _PROBE_STRIDE - 1
    assert reference[0] < 399
    assert _probe_until_censored(True, budget) == reference


def test_dominance_helpers_with_nothing_to_count():
    """A saturated segment may defer no query, and a segment in which no
    key reappears has no band: both count nothing, and say so."""
    empty = np.empty(0, dtype=np.int64)
    assert lru_kernel._dominance_counts(empty, empty, empty).size == 0
    assert lru_kernel._dominance_counts(empty, empty, np.arange(4)).size == 0
    queries = np.array([5, 9], dtype=np.int64)
    assert not lru_kernel._resolve_ambiguous(
        queries - 3, queries, empty, empty, capacity=2
    ).any()
