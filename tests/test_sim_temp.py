"""Unit tests for temp (spill) storage."""

import pytest

from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.disk import Disk
from repro.sim.profile import DeviceProfile
from repro.sim.temp import TempStore


@pytest.fixture
def temp():
    disk = Disk(SimClock(), DeviceProfile(page_size=8192))
    return TempStore(disk), disk


def test_write_run_charges_sequentially(temp):
    store, disk = temp
    run = store.write_run(n_rows=1000, row_bytes=80)
    # 1000 rows x 80B = 80000B -> ceil(80000/8192) = 10 pages.
    assert run.n_pages == 10
    assert disk.stats.pages_written == 10
    assert store.pages_spilled == 10


def test_write_run_rejects_empty(temp):
    store, _disk = temp
    with pytest.raises(StorageError):
        store.write_run(0, 8)


def test_row_smaller_than_page_rounds_up(temp):
    store, _disk = temp
    run = store.write_run(n_rows=1, row_bytes=8)
    assert run.n_pages == 1


def test_read_pages_advances_cursor(temp):
    store, _disk = temp
    run = store.write_run(n_rows=1000, row_bytes=80)
    assert store.read_pages(run, 4) == 4
    assert run.pages_remaining == 6
    assert store.read_pages(run, 100) == 6
    assert store.read_pages(run, 1) == 0


def test_merge_read_all_of_exhausted_runs_is_free(temp):
    store, disk = temp
    run = store.write_run(n_rows=100, row_bytes=80)
    store.read_run_fully(run)
    before = (disk.clock.now, disk.stats.pages_read)
    store.merge_read_all([run], page_quantum=4)
    assert (disk.clock.now, disk.stats.pages_read) == before


def test_reset_rewinds(temp):
    store, _disk = temp
    run = store.write_run(n_rows=100, row_bytes=800)
    store.read_pages(run, run.n_pages)
    run.reset()
    assert run.pages_remaining == run.n_pages


def test_read_run_fully_reads_everything(temp):
    store, disk = temp
    run = store.write_run(n_rows=1000, row_bytes=80)
    before = disk.stats.pages_read
    store.read_run_fully(run)
    assert disk.stats.pages_read - before == run.n_pages


def test_alternating_runs_pay_positioning(temp):
    """Merging two runs costs more than streaming them back to back."""
    store, disk = temp
    run_a = store.write_run(n_rows=10000, row_bytes=80)
    run_b = store.write_run(n_rows=10000, row_bytes=80)
    start = disk.clock.now
    while run_a.pages_remaining or run_b.pages_remaining:
        store.read_pages(run_a, 1)
        store.read_pages(run_b, 1)
    alternating = disk.clock.now - start

    run_a.reset()
    run_b.reset()
    start = disk.clock.now
    store.read_run_fully(run_a)
    store.read_run_fully(run_b)
    streaming = disk.clock.now - start
    assert alternating > streaming
