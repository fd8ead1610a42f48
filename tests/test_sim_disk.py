"""Unit tests for the simulated disk's cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.disk import Disk, SHORT_SEEK_GAP_PAGES
from repro.sim.profile import DeviceProfile


@pytest.fixture
def disk():
    profile = DeviceProfile(page_size=8192)
    return Disk(SimClock(), profile)


def test_first_read_pays_seek(disk):
    handle = disk.create_file("f")
    elapsed = disk.read_page(handle, 0)
    assert elapsed == pytest.approx(
        disk.profile.seek_time + disk.profile.page_transfer_time
    )
    assert disk.stats.seeks == 1


def test_consecutive_reads_sequential(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 0)
    elapsed = disk.read_page(handle, 1)
    assert elapsed == pytest.approx(disk.profile.page_transfer_time)
    assert disk.stats.sequential_reads == 1


def test_small_forward_gap_is_settle(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 0)
    elapsed = disk.read_page(handle, 10)
    assert elapsed == pytest.approx(
        disk.profile.settle_time + disk.profile.page_transfer_time
    )


def test_backward_access_is_seek(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 100)
    disk.read_page(handle, 50)
    assert disk.stats.seeks == 2


def test_huge_forward_gap_is_seek(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 0)
    disk.read_page(handle, SHORT_SEEK_GAP_PAGES + 2)
    assert disk.stats.seeks == 2


def test_file_switch_is_seek(disk):
    f1, f2 = disk.create_file("a"), disk.create_file("b")
    disk.read_page(f1, 0)
    disk.read_page(f2, 1)  # would be sequential within one file
    assert disk.stats.seeks == 2


def test_read_run_amortizes_positioning(disk):
    handle = disk.create_file("f")
    elapsed = disk.read_run(handle, 0, 100)
    expected = disk.profile.seek_time + 100 * disk.profile.page_transfer_time
    assert elapsed == pytest.approx(expected)
    assert disk.stats.pages_read == 100


def test_read_run_rejects_bad_args(disk):
    handle = disk.create_file("f")
    with pytest.raises(StorageError):
        disk.read_run(handle, 0, 0)
    with pytest.raises(StorageError):
        disk.read_run(handle, -1, 5)


def test_scattered_empty_is_free(disk):
    handle = disk.create_file("f")
    assert disk.read_scattered(handle, np.array([], dtype=np.int64)) == 0.0


def test_scattered_requires_ascending(disk):
    handle = disk.create_file("f")
    with pytest.raises(StorageError):
        disk.read_scattered(handle, np.array([3, 1, 2]))


def test_scattered_consecutive_equals_run(disk):
    handle = disk.create_file("f")
    scattered = disk.read_scattered(handle, np.arange(50))
    disk.forget_position()
    run = disk.read_run(handle, 0, 50)
    assert scattered == pytest.approx(run)


def test_scattered_gaps_cost_settles(disk):
    handle = disk.create_file("f")
    pages = np.arange(0, 100, 10)  # gaps of 10
    elapsed = disk.read_scattered(handle, pages)
    expected = (
        disk.profile.seek_time
        + pages.size * disk.profile.page_transfer_time
        + (pages.size - 1) * disk.profile.settle_time
    )
    assert elapsed == pytest.approx(expected)


def test_coalesce_reads_through_tiny_gaps(disk):
    handle = disk.create_file("f")
    pages = np.arange(0, 20, 2)  # gap 2: one skipped page each
    plain = disk.read_scattered(handle, pages)
    disk.forget_position()
    coalesced = disk.read_scattered(handle, pages, coalesce=True)
    assert coalesced < plain
    # Read-through charges the skipped pages as transfers.
    max_gap = 1 + int(disk.profile.settle_time / disk.profile.page_transfer_time)
    assert max_gap >= 2  # precondition of this test


def test_coalesce_never_worse_than_plain():
    profile = DeviceProfile(page_size=8192)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pages = np.unique(rng.integers(0, 5000, 200))
        d1 = Disk(SimClock(), profile)
        d2 = Disk(SimClock(), profile)
        handle1, handle2 = d1.create_file("f"), d2.create_file("f")
        plain = d1.read_scattered(handle1, pages)
        coalesced = d2.read_scattered(handle2, pages, coalesce=True)
        assert coalesced <= plain + 1e-12


def test_write_run_counts_pages(disk):
    handle = disk.create_file("f")
    disk.write_run(handle, 0, 10)
    assert disk.stats.pages_written == 10
    assert disk.stats.write_time > 0


def test_stats_snapshot_delta(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 0)
    before = disk.stats.snapshot()
    disk.read_run(handle, 1, 5)
    delta = disk.stats.delta(before)
    assert delta.pages_read == 5
    assert disk.stats.pages_read == 6


def test_forget_position_forces_seek(disk):
    handle = disk.create_file("f")
    disk.read_page(handle, 0)
    disk.forget_position()
    disk.read_page(handle, 1)
    assert disk.stats.seeks == 2


def test_read_runs_of_nothing_is_free(disk):
    handle = disk.create_file("f")
    empty = np.empty(0, dtype=np.int64)
    disk.read_runs(empty, empty, empty)
    assert disk.clock.now == 0.0 and disk.stats.pages_read == 0


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.one_of(st.integers(0, 40), st.integers(2100, 2140)),
            st.integers(1, 4),
        ),
        max_size=30,
    ),
    st.data(),
)
def test_planned_runs_equal_read_run_loop(reads, data):
    """``plan_runs``, ``advance_many`` and ``commit_runs`` over reads of
    three files, committed in two slices (either may be empty) with an
    empty one between them, charge what the ``read_run`` loop charges
    from a live head: the clock, every statistic and the head."""

    def setup():
        disk = Disk(SimClock(), DeviceProfile(page_size=8192))
        handles = [disk.create_file(name) for name in "abc"]
        disk.read_page(handles[0], 7)
        return disk, handles

    loop_disk, loop_handles = setup()
    for which, start, count in reads:
        loop_disk.read_run(loop_handles[which], start, count)
    disk, handles = setup()
    file_ids = np.array([handles[w].file_id for w, _, _ in reads], dtype=np.int64)
    starts = np.array([start for _, start, _ in reads], dtype=np.int64)
    counts = np.array([count for _, _, count in reads], dtype=np.int64)
    planned = disk.plan_runs(file_ids, starts, counts)
    disk.clock.advance_many(planned.elapsed)
    split = data.draw(st.integers(0, len(reads)))
    disk.commit_runs(planned, 0, split)
    disk.commit_runs(planned, split, split)
    disk.commit_runs(planned, split, len(reads))
    assert disk.clock.now == loop_disk.clock.now
    assert disk.stats == loop_disk.stats
    assert disk._head == loop_disk._head
