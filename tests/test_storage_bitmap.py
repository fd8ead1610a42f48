"""Unit and property tests for row-id bitmaps."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import PlanError, StorageError
from repro.storage import bitmap as bitmap_module
from repro.storage.bitmap import (
    RowIdBitmap,
    dedupe_sorted,
    intersect_rids,
    position_table,
    probe_rids,
    rid_sort_order,
)


def test_empty_bitmap():
    bitmap = RowIdBitmap(100)
    assert bitmap.sorted_rids().size == 0


def test_add_and_sorted_output():
    bitmap = RowIdBitmap(100)
    bitmap.add(np.array([42, 3, 99, 3]))
    assert np.array_equal(bitmap.sorted_rids(), [3, 42, 99])


def test_add_out_of_range_rejected():
    bitmap = RowIdBitmap(10)
    with pytest.raises(StorageError):
        bitmap.add(np.array([10]))
    with pytest.raises(StorageError):
        bitmap.add(np.array([-1]))


def test_add_empty_is_noop():
    bitmap = RowIdBitmap(10)
    bitmap.add(np.array([], dtype=np.int64))
    assert bitmap.sorted_rids().size == 0


def test_memory_bytes_is_one_bit_per_row():
    assert RowIdBitmap(800).memory_bytes == 100
    assert RowIdBitmap(801).memory_bytes == 101


@given(st.lists(st.integers(0, 999), min_size=1, max_size=300))
def test_sorted_rids_always_sorted_unique(rids):
    bitmap = RowIdBitmap(1000)
    bitmap.add(np.array(rids))
    out = bitmap.sorted_rids()
    assert np.all(np.diff(out) > 0)
    assert set(out.tolist()) == set(rids)


# ---------------------------------------------------------------------------
# rid-set kernel
# ---------------------------------------------------------------------------

#: Multiplying rids by this leaves any array of two or more of them far
#: too sparse in ``[0, max rid]`` for the scatter/gather path.
SPARSE_SPREAD = 1 << 20


def assert_intersects_like_numpy(left, right):
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    expected = np.intersect1d(left, right, assume_unique=True, return_indices=True)
    got = intersect_rids(left, right)
    for ours, theirs in zip(got, expected):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(left[got[1]], got[0])
    assert np.array_equal(right[got[2]], got[0])


@st.composite
def unique_rid_pairs(draw):
    """Two unique rid arrays drawn from one shuffled universe."""
    universe = draw(st.integers(1, 96))
    shuffled = draw(st.permutations(range(universe)))
    reshuffled = draw(st.permutations(range(universe)))
    left = shuffled[: draw(st.integers(0, universe))]
    right = reshuffled[: draw(st.integers(0, universe))]
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


@given(unique_rid_pairs(), st.sampled_from([1, SPARSE_SPREAD]))
def test_intersect_rids_matches_numpy(pair, spread):
    left, right = pair
    assert_intersects_like_numpy(left * spread, right * spread)


UNIVERSE = 64
FULL = np.random.default_rng(5).permutation(UNIVERSE)
EDGE_CASES = {
    "empty-empty": ([], []),
    "empty-full": ([], FULL),
    "singleton-hit": ([UNIVERSE - 1], FULL),
    "singleton-miss": ([3], [4]),
    "disjoint": (FULL[FULL % 2 == 0], FULL[FULL % 2 == 1]),
    "identical": (FULL[:40], FULL[:40]),
    "reversed": (FULL[:40], FULL[:40][::-1]),
    "full-vs-subset": (FULL, FULL[10:30]),
    "last-rid-of-universe": (
        [UNIVERSE - 1, 0],
        np.arange(UNIVERSE - 12, UNIVERSE)[::-1],
    ),
}


@pytest.mark.parametrize("spread", [1, SPARSE_SPREAD], ids=["dense", "sparse"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_intersect_rids_edge_cases_on_both_paths(case, spread, monkeypatch):
    left, right = (
        np.asarray(side, dtype=np.int64) * spread for side in EDGE_CASES[case]
    )
    tables_built = []
    real_position_table = position_table

    def spy(rids):
        tables_built.append(rids.size)
        return real_position_table(rids)

    monkeypatch.setattr(bitmap_module, "position_table", spy)
    assert_intersects_like_numpy(left, right)
    if min(left.size, right.size) == 0:
        assert not tables_built
    elif spread == 1:
        # Dense: one position table, over the larger side.
        assert tables_built == [max(left.size, right.size)]
    else:
        assert not tables_built


@given(unique_rid_pairs(), st.sampled_from([1, SPARSE_SPREAD]))
def test_rid_sort_order_is_argsort(pair, spread):
    rids = pair[0] * spread
    assert np.array_equal(rid_sort_order(rids), np.argsort(rids, kind="stable"))


@given(unique_rid_pairs())
def test_probe_rids_ignores_rids_past_the_table(pair):
    rids, indexed = pair
    table = position_table(indexed)
    # Shifting the odd rids past the table's end must only drop them.
    shifted = np.where(rids % 2 == 0, rids, rids + 1000)
    expected = np.intersect1d(
        shifted, indexed, assume_unique=True, return_indices=True
    )
    for ours, theirs in zip(probe_rids(shifted, table), expected):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("spread", [1, SPARSE_SPREAD], ids=["dense", "sparse"])
def test_duplicate_rids_raise_instead_of_last_writer_wins(spread):
    clean = np.arange(16, dtype=np.int64)[::-1] * spread
    dupes = clean.copy()
    dupes[3] = dupes[11]
    # NumPy's answer for the duplicated input is silently wrong: the
    # duplicate shows up twice in the "intersection".
    common = np.intersect1d(dupes, clean, assume_unique=True)
    assert np.unique(common).size < common.size
    for left, right in ((dupes, clean), (clean, dupes), (dupes, dupes)):
        with pytest.raises(PlanError, match="duplicate"):
            intersect_rids(left, right)
    with pytest.raises(PlanError, match="duplicate"):
        rid_sort_order(dupes)
    with pytest.raises(PlanError, match="duplicate"):
        position_table(dupes)


@pytest.mark.parametrize("spread", [1, SPARSE_SPREAD], ids=["dense", "sparse"])
def test_negative_rids_rejected(spread):
    clean = np.arange(16, dtype=np.int64)[::-1] * spread
    negative = clean.copy()
    negative[5] = -1
    for left, right in ((negative, clean), (clean, negative)):
        with pytest.raises(PlanError, match="non-negative"):
            intersect_rids(left, right)
    with pytest.raises(PlanError, match="non-negative"):
        rid_sort_order(np.array([-2, 5, 9]))  # ascending fast path
    with pytest.raises(PlanError, match="non-negative"):
        position_table(negative)


@given(st.lists(st.integers(-50, 50), max_size=200))
def test_dedupe_sorted_matches_unique(values):
    ordered = np.sort(np.array(values, dtype=np.int64))
    assert np.array_equal(dedupe_sorted(ordered), np.unique(ordered))


def test_dedupe_sorted_rejects_decreasing_input():
    with pytest.raises(PlanError):
        dedupe_sorted(np.array([1, 3, 2]))
