"""Choice maps and regret maps (repro.core.choice)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.choice import ChoiceMap, build_choice_map, lenient_best_times
from repro.core.mapdata import MapAxis, MapData
from repro.errors import ExperimentError

DATA_DIR = Path(__file__).resolve().parent / "data"


def grid_map(times, meta=None):
    times = np.asarray(times, dtype=float)
    axes = [MapAxis("x", np.arange(1.0, times.shape[1] + 1))]
    if times.ndim == 3:
        axes.append(MapAxis("y", np.arange(1.0, times.shape[2] + 1)))
    return MapData(
        plan_ids=[f"p{i}" for i in range(times.shape[0])],
        times=times,
        aborted=np.isnan(times),
        rows=np.zeros(times.shape[1:], dtype=int),
        meta=dict(meta or {}),
        axes=axes,
    )


def fixture_choice_map() -> ChoiceMap:
    """The golden fixture's choice map, built from first principles.

    Covers every regret regime: factor 1 (chosen = best), finite > 1,
    +inf (chosen plan censored), and NaN (every plan censored).
    """
    mapdata = grid_map(
        [
            [[1.0, 2.0], [np.nan, 4.0], [np.nan, 1.0]],
            [[2.0, 2.0], [3.0, 8.0], [np.nan, np.nan]],
        ],
        meta={"scenario": "golden-choice"},
    )
    picks = {
        (0, 0): "p0",  # best -> regret 1
        (0, 1): "p0",  # tied best -> regret 1
        (1, 0): "p1",  # only finite plan -> regret 1
        (1, 1): "p1",  # 8.0 vs best 4.0 -> regret 2
        (2, 0): "p0",  # everything censored -> regret NaN
        (2, 1): "p1",  # censored choice, finite best -> regret inf
    }
    return build_choice_map(mapdata, "fixture-policy", picks.__getitem__)


def test_lenient_best_times_tolerates_all_censored_cells():
    mapdata = grid_map([[np.nan, 1.0], [np.nan, 3.0]])
    best = lenient_best_times(mapdata)
    assert np.isnan(best[0]) and best[1] == 1.0
    restricted = lenient_best_times(mapdata, ["p1"])
    assert np.isnan(restricted[0]) and restricted[1] == 3.0


def test_build_choice_map_regret_values():
    choice = fixture_choice_map()
    assert choice.grid_shape == (3, 2)
    assert choice.regret[0, 0] == 1.0
    assert choice.regret[0, 1] == 1.0
    assert choice.regret[1, 0] == 1.0
    assert choice.regret[1, 1] == 2.0
    assert np.isnan(choice.regret[2, 0])
    assert np.isinf(choice.regret[2, 1])
    assert choice.plan_ids[choice.choices[1, 1]] == "p1"
    assert choice.meta["scenario"] == "golden-choice"


def test_build_choice_map_rejects_partial_maps():
    mapdata = grid_map([[1.0, 2.0]])
    mapdata.meta["cells"] = [0]
    with pytest.raises(ExperimentError):
        build_choice_map(mapdata, "p", lambda idx: "p0")


def test_build_choice_map_keeps_measured_cells():
    mapdata = grid_map([[1.0, 2.0]], meta={"measured_cells": [0]})
    choice = build_choice_map(mapdata, "p", lambda idx: "p0")
    assert choice.meta["measured_cells"] == [0]


def test_build_choice_map_works_in_three_dimensions():
    times = np.arange(1.0, 1.0 + 2 * 2 * 3 * 2).reshape(2, 2, 3, 2)
    mapdata = MapData(
        plan_ids=["p0", "p1"],
        times=times,
        aborted=np.zeros_like(times, dtype=bool),
        rows=np.zeros(times.shape[1:], dtype=int),
        axes=[
            MapAxis("a", np.arange(1.0, 3.0)),
            MapAxis("b", np.arange(1.0, 4.0)),
            MapAxis("c", np.arange(1.0, 3.0)),
        ],
    )
    choice = build_choice_map(mapdata, "p", lambda idx: "p0")
    assert choice.grid_shape == (2, 3, 2)
    assert np.all(choice.regret == 1.0)  # p0 is everywhere cheapest


def test_choice_map_statistics():
    choice = fixture_choice_map()
    assert choice.worst_regret() == np.inf
    finite_only = np.zeros((3, 2), dtype=bool)
    finite_only[:2, :] = True
    assert choice.worst_regret(finite_only) == 2.0
    assert choice.mean_regret() == pytest.approx((1 + 1 + 1 + 2) / 4)


def test_choice_map_validation():
    axes = [MapAxis("x", [1.0, 2.0])]
    with pytest.raises(ExperimentError):
        ChoiceMap("p", ["p0"], np.zeros((2, 2), dtype=int), np.ones(2), axes)
    with pytest.raises(ExperimentError):
        ChoiceMap("p", ["p0"], np.asarray([0, 1]), np.ones(2), axes)
    with pytest.raises(ExperimentError):
        ChoiceMap("p", ["p0"], np.zeros(3, dtype=int), np.ones(3), axes)


def test_round_trip_preserves_inf_and_nan(tmp_path):
    choice = fixture_choice_map()
    path = tmp_path / "choice.json"
    choice.save(path)
    loaded = ChoiceMap.load(path)
    assert loaded.policy == choice.policy
    assert loaded.plan_ids == choice.plan_ids
    assert np.array_equal(loaded.choices, choice.choices)
    assert np.array_equal(loaded.regret, choice.regret, equal_nan=True)
    assert all(
        ours.matches(theirs) for ours, theirs in zip(loaded.axes, choice.axes)
    )
    assert loaded.meta == choice.meta


def test_golden_choice_fixture_round_trip():
    """The checked-in serialization must decode to the same map, and the
    map must re-encode to the same document (format stability)."""
    golden_path = DATA_DIR / "golden_choice.json"
    golden = ChoiceMap.load(golden_path)
    built = fixture_choice_map()
    assert golden.policy == built.policy
    assert golden.plan_ids == built.plan_ids
    assert np.array_equal(golden.choices, built.choices)
    assert np.array_equal(golden.regret, built.regret, equal_nan=True)
    assert golden.meta == built.meta
    assert json.loads(golden_path.read_text()) == built.to_dict()
