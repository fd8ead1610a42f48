"""Tests for parameter spaces and the MapData container."""

import numpy as np
import pytest

from repro.core.mapdata import MapAxis, MapData
from repro.core.parameter_space import Space1D, Space2D, log2_targets
from repro.errors import ExperimentError


def test_log2_targets_factor_of_two():
    targets = log2_targets(-4)
    assert targets.tolist() == [2.0**-4, 2.0**-3, 2.0**-2, 2.0**-1, 1.0]


def test_log2_targets_per_octave():
    """One point per octave, ending at the full table."""
    targets = log2_targets(-3)
    assert len(targets) == 4
    assert targets[0] == pytest.approx(0.125)
    assert np.allclose(targets[1:] / targets[:-1], 2.0)
    with pytest.raises(TypeError):
        log2_targets(-1, 0, per_octave=2)


def test_log2_targets_validation():
    with pytest.raises(ExperimentError):
        log2_targets(1)


def test_space1d_validation():
    with pytest.raises(ExperimentError):
        Space1D("x", np.array([]))
    with pytest.raises(ExperimentError):
        Space1D("x", np.array([0.5, 0.5]))
    with pytest.raises(ExperimentError):
        Space1D("x", np.array([0.5, 0.25]))


def test_space2d_shape():
    space = Space2D.log2("a", "b", -3)
    assert (space.x.n_points, space.y.n_points) == (4, 4)


def make_map(two_d=False):
    plan_ids = ["p1", "p2"]
    if two_d:
        times = np.array(
            [[[1.0, 2.0], [3.0, 4.0]], [[2.0, 1.0], [np.nan, 8.0]]]
        )
        rows = np.array([[1, 2], [3, 4]])
        return MapData(
            plan_ids=plan_ids,
            times=times,
            aborted=np.isnan(times),
            rows=rows,
            axes=[
                MapAxis("x", np.array([0.5, 1.0])),
                MapAxis("y", np.array([0.5, 1.0])),
            ],
        )
    times = np.array([[1.0, 2.0, 4.0], [2.0, np.nan, 3.0]])
    return MapData(
        plan_ids=plan_ids,
        times=times,
        aborted=np.isnan(times),
        rows=np.array([1, 2, 4]),
        axes=[MapAxis("x", np.array([0.25, 0.5, 1.0]))],
    )


def test_mapdata_accessors():
    mapdata = make_map()
    assert not mapdata.is_2d
    assert mapdata.grid_shape == (3,)
    assert mapdata.n_plans == 2
    assert mapdata.plan_index("p2") == 1
    assert np.array_equal(mapdata.times_for("p1"), [1.0, 2.0, 4.0])


def test_mapdata_unknown_plan():
    with pytest.raises(ExperimentError):
        make_map().plan_index("nope")


def test_mapdata_shape_validation():
    with pytest.raises(ExperimentError):
        MapData(
            plan_ids=["p"],
            times=np.zeros((1, 3)),
            aborted=np.zeros((1, 2), dtype=bool),
            rows=np.zeros(3, dtype=int),
            axes=[MapAxis("x", np.arange(3.0) + 1)],
        )


def test_mapdata_subset():
    mapdata = make_map()
    sub = mapdata.subset(["p2"])
    assert sub.plan_ids == ["p2"]
    assert sub.times.shape == (1, 3)
    # Subset is a copy.
    sub.times[0, 0] = 99.0
    assert mapdata.times[1, 0] == 2.0


@pytest.mark.parametrize("two_d", [False, True])
def test_mapdata_json_roundtrip(tmp_path, two_d):
    mapdata = make_map(two_d)
    mapdata.meta = {"sweep": "test", "budget_seconds": 1.5, "cells": [0, 1]}
    path = tmp_path / "map.json"
    mapdata.save(path)
    loaded = MapData.load(path)
    assert loaded.plan_ids == mapdata.plan_ids
    # NaN cells survive exactly (bit-for-bit, not just allclose).
    assert np.array_equal(loaded.times, mapdata.times, equal_nan=True)
    assert np.isnan(loaded.times).any()
    assert np.array_equal(loaded.aborted, mapdata.aborted)
    assert np.array_equal(loaded.rows, mapdata.rows)
    assert loaded.rows.dtype == np.int64
    assert loaded.meta == mapdata.meta
    if two_d:
        assert np.allclose(loaded.y_targets, mapdata.y_targets)
    else:
        assert loaded.y_targets is None and loaded.y_achieved is None


def test_mapdata_roundtrip_int64_rows(tmp_path):
    mapdata = make_map()
    mapdata.rows = np.array([1, 2, 2**40], dtype=np.int64)
    path = tmp_path / "map.json"
    mapdata.save(path)
    loaded = MapData.load(path)
    assert loaded.rows[2] == 2**40
    assert loaded.rows.dtype == np.int64


# ---------------------------------------------------------------------------
# merging partial maps
# ---------------------------------------------------------------------------


def split_map(mapdata, cells_a, cells_b):
    """Simulate two partial sweeps of one grid."""
    import copy

    def restrict(cells):
        part = copy.deepcopy(mapdata)
        shape = part.grid_shape
        keep = np.zeros(int(np.prod(shape)), dtype=bool)
        keep[list(cells)] = True
        mask = keep.reshape(shape)
        part.times[:, ~mask] = np.nan
        part.aborted[:, ~mask] = False
        part.rows = np.where(mask, part.rows, 0)
        part.meta = dict(part.meta, cells=sorted(cells))
        return part

    return restrict(cells_a), restrict(cells_b)


@pytest.mark.parametrize("two_d", [False, True])
def test_mapdata_merge_recovers_full_map(two_d):
    mapdata = make_map(two_d)
    n_cells = int(np.prod(mapdata.grid_shape))
    evens = [c for c in range(n_cells) if c % 2 == 0]
    odds = [c for c in range(n_cells) if c % 2 == 1]
    part_a, part_b = split_map(mapdata, evens, odds)
    merged = MapData.merge([part_b, part_a])
    assert np.array_equal(merged.times, mapdata.times, equal_nan=True)
    assert np.array_equal(merged.aborted, mapdata.aborted)
    assert np.array_equal(merged.rows, mapdata.rows)
    assert "cells" not in merged.meta


def test_mapdata_merge_partial_union_stays_partial():
    mapdata = make_map()
    part_a, part_b = split_map(mapdata, [0], [2])
    merged = MapData.merge([part_a, part_b])
    assert merged.is_partial
    assert merged.filled_cells.tolist() == [0, 2]
    assert merged.rows[1] == 0


def test_mapdata_merge_rejects_overlap_and_mismatch():
    mapdata = make_map()
    part_a, part_b = split_map(mapdata, [0, 1], [1, 2])
    with pytest.raises(ExperimentError, match="overlap"):
        MapData.merge([part_a, part_b])
    full = make_map()
    with pytest.raises(ExperimentError, match="partial"):
        MapData.merge([full])
    with pytest.raises(ExperimentError):
        MapData.merge([])
    other = make_map()
    other.plan_ids = ["p1", "other"]
    part_c, _ = split_map(other, [0], [1])
    with pytest.raises(ExperimentError, match="plan ids"):
        MapData.merge([part_a, part_c])


def test_mapdata_merge_duplicate_cells_raise_even_with_identical_data():
    """The documented overlap contract: raise, never last-write-win.

    Sweeps are deterministic, so a duplicate cell cannot legitimately
    carry different data — but a silent overwrite would let a buggy
    wave/chunk split hide itself, so identical duplicates raise too.
    """
    mapdata = make_map()
    part_a, _ = split_map(mapdata, [0, 1], [2])
    twin, _ = split_map(mapdata, [1], [2])  # same grid, same data at cell 1
    with pytest.raises(ExperimentError, match="overlap.*\\[1\\]"):
        MapData.merge([part_a, twin])


def test_mapdata_merge_non_contiguous_scattered_cells():
    """Adaptive waves produce scattered, non-contiguous cell subsets."""
    mapdata = make_map(two_d=True)
    part_a, part_b = split_map(mapdata, [0, 3], [2])
    merged = MapData.merge([part_b, part_a])
    assert merged.is_partial
    assert merged.filled_cells.tolist() == [0, 2, 3]
    assert np.array_equal(merged.measured_mask, np.array([[True, False], [True, True]]))
    flat = merged.times.reshape(merged.n_plans, -1)
    full = mapdata.times.reshape(mapdata.n_plans, -1)
    assert np.array_equal(flat[:, [0, 2, 3]], full[:, [0, 2, 3]], equal_nan=True)
    assert np.isnan(flat[:, 1]).all()


def test_mapdata_merge_disjoint_plan_subsets_raise():
    """Parts must cover the same plans; disjoint plan subsets raise."""
    part_a, part_b = split_map(make_map(), [0], [1])
    only_p1 = part_a.subset(["p1"])
    only_p2 = part_b.subset(["p2"])
    assert only_p1.is_partial and only_p2.is_partial  # subset keeps cells
    with pytest.raises(ExperimentError, match="plan ids"):
        MapData.merge([only_p1, only_p2])


def test_mapdata_merge_is_order_independent():
    """Any permutation of the parts merges to the bit-identical map."""
    mapdata = make_map(two_d=True)
    part_a, part_b = split_map(mapdata, [0, 3], [1])
    part_c, _ = split_map(mapdata, [2], [0])
    reference = MapData.merge([part_a, part_b, part_c])
    for order in ([part_c, part_b, part_a], [part_b, part_c, part_a]):
        merged = MapData.merge(order)
        assert np.array_equal(merged.times, reference.times, equal_nan=True)
        assert np.array_equal(merged.aborted, reference.aborted)
        assert np.array_equal(merged.rows, reference.rows)
        assert merged.meta == reference.meta
