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
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.storage.buffer_pool as buffer_pool
import repro.storage.lru_kernel as lru_kernel
from repro.errors import BufferPoolError
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
    # codes, the encoding charge_trace uses for foreign residents).
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
    kernel_pool.charge_trace(kernel_handles[0], pages, None, ())
    for page in pages:
        scalar_pool.get(scalar_handles[0], int(page))
    assert vars(kernel_pool.stats) == vars(scalar_pool.stats)
    assert kernel_disk.stats == scalar_disk.stats
    assert kernel_disk.clock.now == scalar_disk.clock.now
    assert [
        (file_id, page) for file_id, page in kernel_pool._resident
    ] == [(file_id, page) for file_id, page in scalar_pool._resident]


def test_charge_trace_refuses_negative_pages():
    """A negative page number raises before anything is charged: pool
    statistics, resident order, clock and disk statistics stay put."""
    (pool, disk, handles), _ = make_pools()
    for which, page in ((0, 4), (1, 2), (0, 1)):
        pool.get(handles[which], page)
    stats, resident = dict(vars(pool.stats)), list(pool._resident)
    disk_stats, now = dataclasses.replace(disk.stats), disk.clock.now
    with pytest.raises(BufferPoolError, match="negative"):
        pool.charge_trace(handles[0], np.array([1, -2, 3]), None, [1, 2, 3])
    assert vars(pool.stats) == stats
    assert list(pool._resident) == resident
    assert disk.stats == disk_stats
    assert disk.clock.now == now


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
    """charge_trace against the get loop on a trace whose page span
    fits beside the warm residents exactly (the pool's no-eviction rule
    holds: first and last touches), or overshoots by one page (the rule
    holds only if a resident lies inside the span or the trace is short,
    the LRU kernel takes it otherwise), or is empty: a check after every
    access sees the clock move exactly on the loop's misses."""
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
    codes = kernel_pool._resident_codes(kernel_handles[0].file_id)[0]
    inside = trace and any(min(trace) <= code <= max(trace) for code in codes)
    low, high = (min(trace), max(trace)) if trace else (0, -1)
    assert kernel_pool.fits(kernel_handles[0], low, high, len(trace)) == bool(
        over == 0 or not trace or inside or len(trace) + n_resident <= capacity
    )

    kernel_budget = _CountedBudget(None)
    kernel_evictions = kernel_pool.stats.evictions
    start_clock = kernel_disk.clock.now
    kernel_pool.charge_trace(
        kernel_handles[0], pages, kernel_budget, np.arange(1, pages.size + 1)
    )
    flags, evictions = [], scalar_pool.stats.evictions
    for page in trace:
        hits = scalar_pool.stats.hits
        scalar_pool.get(scalar_handles[0], page)
        flags.append(scalar_pool.stats.hits > hits)
    clocks = [start_clock] + kernel_budget.seen
    assert [after == before for before, after in zip(clocks, clocks[1:])] == flags
    assert kernel_pool.stats.evictions - kernel_evictions == (
        scalar_pool.stats.evictions - evictions
    )
    assert list(kernel_pool._resident) == list(scalar_pool._resident)
    assert vars(kernel_pool.stats) == vars(scalar_pool.stats)
    assert kernel_disk.stats == scalar_disk.stats
    assert kernel_disk.clock.now == scalar_disk.clock.now


@pytest.mark.parametrize(
    "trace, fits",
    [
        # Span bound: the span plus the residents outside it (-1, -2).
        ([2, 3, 4, 5, 6, 7, 2, 7, 5], True),
        ([2, 3, 4, 5, 6, 7, 8, 2, 8], False),
        # Count bound: the trace's length plus every resident.
        ([0, 100, 200, 300], True),
        ([0, 100, 200, 300, 400], False),
        # A tree's span, pages 0 up: its file's residents lie inside,
        # so the span plus the other file's residents count.
        (list(range(6)) * 3, True),
        (list(range(7)) * 3, False),
    ],
    ids=[
        "span-at-border",
        "span-over",
        "count-at-border",
        "count-over",
        "tree-span-at-border",
        "tree-span-over",
    ],
)
def test_fits_counts_each_key_once(trace, fits):
    """``BufferPool.fits`` on both sides of each of its two bounds, for
    a real pool of 8 frames holding pages 3 and 4 of the trace's file
    and two pages of another: a resident inside the span counts once.
    Where it answers yes, the get loop evicts nothing."""
    (pool, _disk, handles), _ = make_pools()
    for which, page in ((0, 3), (1, 9), (0, 4), (1, 2)):
        pool.get(handles[which], page)
    codes = pool._resident_codes(handles[0].file_id)[0]
    assert codes.tolist() == [3, -1, 4, -2]
    assert pool.fits(handles[0], min(trace), max(trace), len(trace)) == fits
    for page in trace:
        pool.get(handles[0], page)
    assert (pool.stats.evictions == 0) or not fits
    assert_matches_scalar(trace, codes, pool.capacity_pages)


_PROBE_STRIDE = 16


class _RecordingBudget:
    """An :class:`ExecContext`'s budget, recording the checks a batch
    evaluates: ``checked`` counts those up to and including the first
    that fails, so its last is the check the batch aborts at."""

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self.checked = 0

    def over_budget(self, clock_values):
        over = self.ctx.over_budget(clock_values)
        failing = np.flatnonzero(over)
        self.checked += int(failing[0]) + 1 if failing.size else over.size
        return over

    def check_budget(self) -> None:
        self.ctx.check_budget()


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
    try:
        if batched:
            budget = _RecordingBudget(ctx)
            try:
                tree.probe_many(probes, budget=budget, budget_stride=_PROBE_STRIDE)
            finally:
                checked.append(budget.checked * _PROBE_STRIDE - 1)
        else:
            for done, key in enumerate(probes.tolist()):
                tree.probe(key)
                if done % _PROBE_STRIDE == _PROBE_STRIDE - 1:
                    checked.append(done)
                    ctx.check_budget()
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


def _budgeted_probes(batched, entries, probes, pool_pages, warm, stride, fraction):
    """One budgeted probe run: (abort probe or None, clock, disk stats,
    pool stats, resident order, counts or None, the pool's statistics
    and resident order before the probes).

    After the cold reset, the pool reads pages ``0..warm-1`` of another
    file.  The budget is ``fraction`` of the uncensored loop's clock
    (``None``: no budget), checked after every ``stride``-th probe."""
    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=pool_pages)
    other = env.disk.create_file("other")
    tree = BPlusTree(env, "t", entry_bytes=64)
    tree.bulk_load(entries, {"rid": np.arange(entries.size, dtype=np.int64)})
    budget_seconds = None
    if fraction is not None:
        budget_seconds = fraction * _budgeted_probes(
            False, entries, probes, pool_pages, warm, stride, None
        )[1]
    env.cold_reset()
    for page in range(warm):
        env.pool.get(other, page)
    before = (dict(vars(env.pool.stats)), list(env.pool._resident))
    ctx = ExecContext(env, budget_seconds=budget_seconds)
    ctx.arm_budget()
    aborted_at, counts = None, None
    try:
        if batched:
            budget = _RecordingBudget(ctx)
            try:
                counts = tree.probe_many(
                    probes, budget=budget, budget_stride=stride
                ).tolist()
            except CostBudgetExceeded:
                aborted_at = budget.checked * stride - 1
                raise
        else:
            counts = []
            for done, key in enumerate(probes.tolist()):
                counts.append(int(tree.probe(key)[0].size))
                if done % stride == stride - 1:
                    aborted_at = done
                    ctx.check_budget()
            aborted_at = None
    except CostBudgetExceeded:
        counts = None
    return (
        aborted_at,
        env.clock.now,
        env.disk.stats,
        vars(env.pool.stats),
        list(env.pool._resident),
        counts,
        before,
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_budgeted_probe_many_equals_probe_loop(data):
    """``probe_many`` under a budget against the ``probe()`` loop that
    checks it every ``stride`` probes, over dense and sparse key domains
    (counted and searched bounds), duplicate runs that span leaves,
    cold pools and pools that already hold another file's pages, sized
    so the tree fits beside them (no access can evict) or does not, and
    random budgets: the same abort probe, clock and disk statistics,
    with the pool untouched by an abort; on completion the same counts,
    pool statistics and resident order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    domain = data.draw(st.sampled_from([64, 1 << 40]))
    entries = np.sort(
        np.concatenate(
            [
                rng.integers(-domain, domain, data.draw(st.integers(0, 300))),
                np.full(data.draw(st.integers(0, 40)), rng.integers(-domain, domain)),
            ]
        )
    )
    probes = np.concatenate(
        [
            rng.choice(entries, data.draw(st.integers(0, 150)))
            if entries.size
            else np.empty(0, dtype=np.int64),
            rng.integers(-domain - 2, domain + 2, data.draw(st.integers(0, 150))),
        ]
    )
    rng.shuffle(probes)
    warm = data.draw(st.integers(0, 6))
    levels = BPlusTree(StorageEnv(DeviceProfile(page_size=512)), "t", entry_bytes=64)
    n_pages = sum(levels.levels_for(entries.size)[1])
    pool_pages = data.draw(
        st.one_of(
            st.sampled_from([2, 3, 256]),
            # Around the border of the no-eviction rule.
            st.integers(-2, 1).map(lambda slack: max(1, n_pages + warm + slack)),
        )
    )
    stride = data.draw(st.integers(1, 40))
    fraction = data.draw(st.one_of(st.none(), st.floats(0.0, 1.2)))
    args = (entries, probes, pool_pages, warm, stride, fraction)
    loop = _budgeted_probes(False, *args)
    batch = _budgeted_probes(True, *args)
    assert batch[:3] == loop[:3]
    assert batch[6] == loop[6]
    if batch[0] is None:
        assert batch[3:6] == loop[3:6]
    else:
        assert (batch[3], batch[4]) == batch[6]


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


# ---------------------------------------------------------------------------
# window-by-window charging: BufferPool.charge_trace
# ---------------------------------------------------------------------------


class _Censored(Exception):
    """Raised by a test budget: the stand-in for budget exhaustion."""


class _CountedBudget:
    """A budget whose check number ``abort_at`` fails (1-based;
    ``None``: none does), recording the clock at every check up to it."""

    def __init__(self, abort_at) -> None:
        self.abort_at = abort_at
        self.seen: list[float] = []

    def over_budget(self, clock_values):
        over = np.zeros(len(clock_values), dtype=bool)
        for index, now in enumerate(np.asarray(clock_values).tolist()):
            self.seen.append(now)
            if len(self.seen) == self.abort_at:
                over[index] = True
                break
        return over

    def check_budget(self) -> None:
        raise _Censored


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_windowed_charging_equals_checked_get_loop(data):
    """Window by window, against the ``get`` loop with CPU units placed
    between its accesses and a budget check every stride: the bitwise
    clock at every check, the clock and disk statistics at the abort (in
    the first window, a later one, or never); the pool untouched by an
    abort, its statistics and resident order the loop's on completion."""
    capacity = data.draw(st.integers(1, 12))
    warm = data.draw(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 30)), max_size=16)
    )
    trace = data.draw(st.lists(st.integers(0, 30), max_size=300))
    stride = data.draw(st.integers(1, 8))
    window_checks = data.draw(st.integers(1, 3))
    n_checks = -(-len(trace) // stride)
    abort_at = data.draw(st.one_of(st.none(), st.integers(1, max(1, n_checks))))
    cpu_after = sorted(
        data.draw(st.lists(st.integers(0, len(trace)), max_size=40))
    )
    cpu_unit = data.draw(st.sampled_from([0.0, 3e-5, 1e-3]))
    checks = np.minimum(np.arange(stride, len(trace) + stride, stride), len(trace))

    (kernel_pool, kernel_disk, kernel_handles), (
        scalar_pool,
        scalar_disk,
        scalar_handles,
    ) = make_pools(capacity)
    for which, page in warm:  # file 1's pages become negative codes
        kernel_pool.get(kernel_handles[which], page)
        scalar_pool.get(scalar_handles[which], page)
    stats_before = dict(vars(kernel_pool.stats))
    resident_before = list(kernel_pool._resident)

    scalar_budget = _CountedBudget(abort_at)
    scalar_aborted = False
    try:
        for position in range(len(trace) + 1):
            for _ in range(cpu_after.count(position)):
                scalar_disk.clock.advance(cpu_unit)
            if position in checks:
                if scalar_budget.over_budget([scalar_disk.clock.now])[0]:
                    scalar_budget.check_budget()
            if position < len(trace):
                scalar_pool.get(scalar_handles[0], trace[position])
    except _Censored:
        scalar_aborted = True

    kernel_budget = _CountedBudget(abort_at)
    kernel_aborted = False
    before = buffer_pool._FIRST_WINDOW_CHECKS
    buffer_pool._FIRST_WINDOW_CHECKS = window_checks
    try:
        kernel_pool.charge_trace(
            kernel_handles[0],
            np.asarray(trace, dtype=np.int64),
            kernel_budget,
            checks,
            cpu_after=cpu_after,
            cpu_unit=cpu_unit,
        )
    except _Censored:
        kernel_aborted = True
    finally:
        buffer_pool._FIRST_WINDOW_CHECKS = before

    assert kernel_budget.seen == scalar_budget.seen
    assert kernel_aborted == scalar_aborted
    assert kernel_disk.clock.now == scalar_disk.clock.now
    assert kernel_disk.stats == scalar_disk.stats
    if kernel_aborted:
        assert vars(kernel_pool.stats) == stats_before
        assert list(kernel_pool._resident) == resident_before
    else:
        assert vars(kernel_pool.stats) == vars(scalar_pool.stats)
        assert list(kernel_pool._resident) == list(scalar_pool._resident)


def test_censored_naive_fetch_simulates_little_past_its_abort(monkeypatch):
    """A naive fetch censored after ``a`` accesses hands the LRU kernel
    at most ``max(first window, 2 a)`` of its accesses, not all of them."""
    simulated = []
    real_simulate = buffer_pool.simulate_lru

    def counting_simulate(trace, resident, capacity):
        simulated.append(int(np.asarray(trace).size))
        return real_simulate(trace, resident, capacity)

    checks = []
    real_over_budget = ExecContext.over_budget

    def counting_over_budget(self, clock_values):
        over = real_over_budget(self, clock_values)
        failing = np.flatnonzero(over)
        checks.extend(clock_values[: failing[0] + 1 if failing.size else None])
        return over

    monkeypatch.setattr(buffer_pool, "simulate_lru", counting_simulate)
    monkeypatch.setattr(ExecContext, "over_budget", counting_over_budget)
    env = StorageEnv(SMALL_PROFILE, pool_pages=64)
    table = make_table(env)
    n_rids = 60_000
    rids = np.random.default_rng(3).integers(0, table.n_rows, n_rids)

    def fetch(budget_seconds):
        simulated.clear()
        checks.clear()
        env.cold_reset()
        ctx = ExecContext(env, budget_seconds=budget_seconds)
        ctx.arm_budget()
        try:
            NAIVE_FETCH.fetch(ctx, table, rids, columns=["val"])
        except CostBudgetExceeded:
            return True
        return False

    assert not fetch(None)
    assert sum(simulated) == n_rids
    full_seconds = env.clock.now
    assert fetch(full_seconds / 8)
    accesses = len(checks) * _NAIVE_CHUNK  # the abort lands after these
    assert accesses < n_rids // 4
    first_window = buffer_pool._FIRST_WINDOW_CHECKS * _NAIVE_CHUNK
    assert sum(simulated) <= max(first_window, 2 * accesses)


# ---------------------------------------------------------------------------
# the memo under threads
# ---------------------------------------------------------------------------


def test_memo_hit_survives_another_threads_eviction(monkeypatch):
    """A memo hit's ``get`` and ``move_to_end`` are one step: another
    thread whose insert would evict the entry between them waits instead.

    The memo's ``get`` starts that thread and gives it time to finish
    before returning; without the lock it evicts the entry just found
    and ``move_to_end`` raises ``KeyError``."""
    resident = np.zeros(0, dtype=np.int64)
    hit_trace = np.array([1, 2, 1], dtype=np.int64)
    rival_trace = np.array([3, 4], dtype=np.int64)
    rivals: list[threading.Thread] = []
    rival_results = []

    class RacingMemo(OrderedDict):
        def get(self, key, default=None):
            found = super().get(key, default)
            if found is not None and not rivals:
                rival = threading.Thread(
                    target=lambda: rival_results.append(
                        simulate_lru(rival_trace, resident, 4)
                    )
                )
                rivals.append(rival)
                rival.start()
                rival.join(timeout=0.5)
            return found

    monkeypatch.setattr(lru_kernel, "_MEMO_CAPACITY", 1)
    monkeypatch.setattr(lru_kernel, "_memo", RacingMemo())
    first = simulate_lru(hit_trace, resident, 4)
    assert simulate_lru(hit_trace, resident, 4) is first
    rivals[0].join(timeout=10)
    assert not rivals[0].is_alive()
    assert rival_results[0].hit_mask.tolist() == [False, False]
    assert list(lru_kernel._memo) == [(4, rival_trace.tobytes(), b"")]


def test_memo_under_thread_contention(monkeypatch):
    """More threads than cores hammering a one-entry memo, with a short
    switch interval: every call returns its own trace's simulation."""
    monkeypatch.setattr(lru_kernel, "_MEMO_CAPACITY", 1)
    monkeypatch.setattr(lru_kernel, "_memo", OrderedDict())
    traces = [np.array([k, k + 1, k], dtype=np.int64) for k in range(4)]
    resident = np.zeros(0, dtype=np.int64)
    failures = []

    def hammer(trace):
        try:
            for _ in range(1500):
                simulation = simulate_lru(trace, resident, 4)
                if simulation.hit_mask.tolist() != [False, False, True]:
                    failures.append("wrong simulation")
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(t,)) for t in traces]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
