"""Unit and property tests for the LRU buffer pool."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import BufferPoolError
from repro.sim.clock import SimClock
from repro.sim.disk import Disk
from repro.sim.profile import DeviceProfile
from repro.storage.buffer_pool import BufferPool


def make_pool(capacity=4):
    disk = Disk(SimClock(), DeviceProfile())
    pool = BufferPool(disk, capacity)
    handle = disk.create_file("f")
    return pool, disk, handle


def resident(pool, handle):
    """The file's cached pages, least recently used first."""
    return [page for file_id, page in pool._resident if file_id == handle.file_id]


def test_capacity_must_be_positive():
    disk = Disk(SimClock(), DeviceProfile())
    with pytest.raises(BufferPoolError):
        BufferPool(disk, 0)


def test_miss_charges_disk_hit_is_free():
    pool, disk, handle = make_pool()
    pool.get(handle, 1)
    t_after_miss = disk.clock.now
    pool.get(handle, 1)
    assert disk.clock.now == t_after_miss
    assert pool.stats.hits == 1
    assert pool.stats.misses == 1


def test_lru_eviction_order():
    pool, _disk, handle = make_pool(capacity=2)
    pool.get(handle, 1)
    pool.get(handle, 2)
    pool.get(handle, 1)  # 1 is now most recent
    pool.get(handle, 3)  # evicts 2
    assert resident(pool, handle) == [1, 3]


def test_clear_resets_residency():
    pool, _disk, handle = make_pool()
    pool.get(handle, 1)
    pool.clear()
    assert resident(pool, handle) == []


def test_capacity_never_exceeded_randomized():
    pool, _disk, handle = make_pool(capacity=3)
    import random

    random.seed(0)
    for _ in range(500):
        pool.get(handle, random.randrange(20))
        assert len(pool._resident) <= 3


@given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
def test_lru_matches_reference_model(accesses):
    """The pool's hit/miss sequence must match a textbook LRU model."""
    pool, _disk, handle = make_pool(capacity=3)
    reference: list[int] = []  # most recent last
    for page in accesses:
        expect_hit = page in reference
        before = pool.stats.hits
        pool.get(handle, page)
        was_hit = pool.stats.hits > before
        assert was_hit == expect_hit
        if page in reference:
            reference.remove(page)
        reference.append(page)
        if len(reference) > 3:
            reference.pop(0)
    assert resident(pool, handle) == reference


def test_hit_rate():
    pool, _disk, handle = make_pool()
    pool.get(handle, 1)
    pool.get(handle, 1)
    stats = pool.stats
    assert stats.hits / (stats.hits + stats.misses) == pytest.approx(0.5)
