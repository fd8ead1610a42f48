"""Tests for map transforms, optimality sets, and regions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.mapdata import MapAxis, MapData
from repro.core.maps import best_times, quotient_for, relative_to_best
from repro.core.optimality import (
    optimal_counts,
    optimal_mask,
    region_stats,
    regions_of,
)
from repro.errors import ExperimentError


def grid_map(times):
    times = np.asarray(times, dtype=float)
    n_plans = times.shape[0]
    return MapData(
        plan_ids=[f"p{i}" for i in range(n_plans)],
        times=times,
        aborted=np.isnan(times),
        rows=np.zeros(times.shape[1:], dtype=int),
        axes=[
            MapAxis(name, np.arange(1.0, n + 1))
            for name, n in zip("xy", times.shape[1:])
        ],
    )


def test_best_times_nan_aware():
    mapdata = grid_map([[1.0, np.nan], [2.0, 3.0]])
    assert best_times(mapdata).tolist() == [1.0, 3.0]


def test_best_times_all_censored_rejected():
    mapdata = grid_map([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(ExperimentError):
        best_times(mapdata)


def test_relative_to_best_min_is_one():
    mapdata = grid_map([[1.0, 4.0], [2.0, 2.0]])
    quotients = relative_to_best(mapdata)
    assert quotients.min(axis=0).tolist() == [1.0, 1.0]
    assert quotients[0].tolist() == [1.0, 2.0]


def test_relative_censored_is_inf():
    mapdata = grid_map([[1.0, np.nan], [2.0, 3.0]])
    quotients = relative_to_best(mapdata)
    assert np.isinf(quotients[0, 1])


def test_quotient_for_with_baseline_subset():
    mapdata = grid_map([[1.0, 1.0], [2.0, 2.0], [8.0, 0.5]])
    quotient = quotient_for(mapdata, "p0", baseline_ids=["p1", "p2"])
    assert quotient.tolist() == [0.5, 2.0]


def test_optimal_mask_tolerances():
    mapdata = grid_map([[1.0, 1.0], [1.05, 3.0]])
    strict = optimal_mask(mapdata)
    assert strict[1].tolist() == [False, False]
    loose = optimal_mask(mapdata, tol_rel=0.10)
    assert loose[1].tolist() == [True, False]
    abs_tol = optimal_mask(mapdata, tol_abs=2.5)
    assert abs_tol[1].tolist() == [True, True]


def test_optimal_counts():
    mapdata = grid_map([[1.0, 1.0], [1.0, 2.0]])
    assert optimal_counts(mapdata).tolist() == [2, 1]


def test_censored_never_optimal():
    mapdata = grid_map([[np.nan, 1.0], [1.0, 1.0]])
    mask = optimal_mask(mapdata, tol_abs=1e9)
    assert not mask[0, 0]


def test_optimal_mask_baseline_disjoint_from_plan_ids():
    """The regret map's shape: mask one plan set against another's best."""
    mapdata = grid_map([[1.0, 4.0], [2.0, 2.0], [8.0, 1.0]])
    mask = optimal_mask(mapdata, plan_ids=["p0"], baseline_ids=["p1", "p2"])
    assert mask.shape == (1, 2)
    # p0 beats best-of-{p1,p2} at cell 0 (1.0 <= 2.0), loses at cell 1
    # (4.0 > 1.0) -- "optimal" against a baseline it is not part of.
    assert mask[0].tolist() == [True, False]


def test_optimal_mask_all_censored_cell_raises():
    """A fully censored cell has no best plan; optimal_mask refuses.

    (The regret map handles this case with lenient_best_times instead —
    see test_core_choice — so the strict contract here must hold.)
    """
    mapdata = grid_map([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(ExperimentError):
        optimal_mask(mapdata)
    # A baseline subset with full censoring is just as undefined.
    mixed = grid_map([[np.nan, 1.0], [1.0, 2.0]])
    with pytest.raises(ExperimentError):
        optimal_mask(mixed, baseline_ids=["p0"])


def test_optimal_mask_tolerance_ties_are_inclusive():
    """A plan exactly at best + tolerance counts as optimal (<=, not <)."""
    mapdata = grid_map([[1.0, 1.0], [1.5, 1.1]])
    at_abs_tie = optimal_mask(mapdata, tol_abs=0.5)
    assert at_abs_tie[1].tolist() == [True, True]
    at_rel_tie = optimal_mask(mapdata, tol_rel=0.1)
    assert at_rel_tie[1].tolist() == [False, True]
    just_below = optimal_mask(mapdata, tol_abs=0.5 - 1e-12)
    assert just_below[1].tolist() == [False, True]


def test_regions_single_component():
    mask = np.array([[1, 1], [1, 0]], dtype=bool)
    components = regions_of(mask)
    assert len(components) == 1
    assert len(components[0]) == 3


def test_regions_diagonal_not_connected():
    mask = np.array([[1, 0], [0, 1]], dtype=bool)
    assert len(regions_of(mask)) == 2


def test_regions_empty():
    assert regions_of(np.zeros((3, 3), dtype=bool)) == []


def test_regions_requires_2d():
    with pytest.raises(ExperimentError):
        regions_of(np.zeros(5, dtype=bool))


def test_region_stats_solid_block():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    stats = region_stats(mask)
    assert stats.n_cells == 4
    assert stats.n_components == 1
    assert stats.contiguous
    assert stats.bbox_fill == 1.0
    assert stats.area_fraction == pytest.approx(0.25)


def test_region_stats_fragmented():
    mask = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=bool)
    stats = region_stats(mask)
    assert stats.n_components == 4
    assert not stats.contiguous
    assert stats.largest_component == 1


def test_region_stats_empty():
    stats = region_stats(np.zeros((2, 2), dtype=bool))
    assert stats.n_cells == 0
    assert stats.area_fraction == 0.0


@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**16),
)
def test_regions_partition_the_mask(nx, ny, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nx, ny)) < 0.5
    components = regions_of(mask)
    cells = [cell for component in components for cell in component]
    assert len(cells) == int(mask.sum())  # disjoint cover
    assert all(mask[x, y] for x, y in cells)
    # Components sorted largest first.
    sizes = [len(component) for component in components]
    assert sizes == sorted(sizes, reverse=True)
