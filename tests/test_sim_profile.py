"""Unit tests for device profiles."""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.sim.profile import DeviceProfile, TEST_PROFILE


def test_default_profile_is_valid():
    profile = DeviceProfile()
    assert profile.page_size == 8192
    assert profile.page_transfer_time > 0


def test_page_transfer_time():
    profile = DeviceProfile(page_size=8192, transfer_rate=8192 * 100)
    assert profile.page_transfer_time == pytest.approx(0.01)


def test_random_page_time_includes_seek():
    profile = DeviceProfile()
    assert profile.random_page_time == pytest.approx(
        profile.seek_time + profile.page_transfer_time
    )


def test_random_to_sequential_ratio_large():
    # The whole paper rests on random I/O being far costlier than sequential.
    profile = DeviceProfile()
    assert profile.random_page_time / profile.page_transfer_time > 10


def test_fetch_row_costlier_than_scan_row():
    profile = DeviceProfile()
    assert profile.cpu_fetch_row > profile.cpu_row


@pytest.mark.parametrize(
    "field, value",
    [
        ("page_size", 0),
        ("transfer_rate", 0),
        ("seek_time", -1e-3),
        ("cpu_row", -1e-9),
        ("memory_bytes", 0),
    ],
)
def test_invalid_profiles_rejected(field, value):
    with pytest.raises(ExecutionError):
        DeviceProfile(**{field: value})


def test_with_overrides_returns_new_profile():
    base = DeviceProfile()
    changed = dataclasses.replace(base, seek_time=1e-3)
    assert changed.seek_time == 1e-3
    assert base.seek_time != 1e-3
    assert changed.page_size == base.page_size


def test_test_profile_small_pages():
    assert TEST_PROFILE.page_size == 512
