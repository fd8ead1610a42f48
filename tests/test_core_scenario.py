"""Scenario abstraction: golden bit-identity, new scenarios, N-D MapData.

The golden files under ``tests/data/`` were produced by the sweep
implementations that predate the Scenario abstraction; the scenario API
must reproduce them bit-for-bit — times, aborted flags, rows, axis
arrays, and meta modulo the added ``scenario`` key.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.driver import DenseGridPolicy
from repro.core.mapdata import MapAxis, MapData
from repro.core.parameter_space import Space1D, Space2D
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.parallel import ParallelSweep
from repro.core.landmarks import symmetry_score
from repro.core.scenario import (
    SCENARIO_TYPES,
    JoinScenario,
    MemorySweepScenario,
    OperatorBench,
    ScenarioSpec,
    SinglePredicateScenario,
    SortSpillScenario,
    TwoPredicateScenario,
    build_scenario,
    operator_bench_factory,
)
from repro.errors import ExperimentError
from repro.systems import SystemA, SystemConfig, build_three_systems
from repro.workloads import LineitemConfig

DATA_DIR = Path(__file__).resolve().parent / "data"
CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)
JITTER = Jitter(rel=0.02, abs=0.0005, seed=7)

SORT_ROWS = [1024, 2048, 3072, 4096, 6144]
SORT_MEMORY = [128 * 1024, 256 * 1024, 512 * 1024]


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


def build_system_a():
    """Module-level factory: picklable for worker processes."""
    return [SystemA(CONFIG)]


def assert_matches_golden(mapdata: MapData, golden: MapData) -> None:
    """Bit-identity modulo the added ``scenario`` meta key."""
    assert mapdata.plan_ids == golden.plan_ids
    assert np.array_equal(mapdata.times, golden.times, equal_nan=True)
    assert np.array_equal(mapdata.aborted, golden.aborted)
    assert np.array_equal(mapdata.rows, golden.rows)
    assert np.array_equal(mapdata.x_targets, golden.x_targets)
    assert np.array_equal(mapdata.x_achieved, golden.x_achieved)
    if golden.y_targets is not None:
        assert np.array_equal(mapdata.y_targets, golden.y_targets)
        assert np.array_equal(mapdata.y_achieved, golden.y_achieved)
    stripped = {k: v for k, v in mapdata.meta.items() if k != "scenario"}
    assert stripped == golden.meta


def assert_identical(a: MapData, b: MapData) -> None:
    assert a.plan_ids == b.plan_ids
    assert np.array_equal(a.times, b.times, equal_nan=True)
    assert np.array_equal(a.aborted, b.aborted)
    assert np.array_equal(a.rows, b.rows)
    assert all(
        ours.matches(theirs) for ours, theirs in zip(a.axes, b.axes)
    )
    assert a.meta == b.meta


# ---------------------------------------------------------------------------
# golden bit-identity of the refactored canonical sweeps
# ---------------------------------------------------------------------------


def test_single_predicate_bit_identical_to_pre_refactor(system_a):
    golden = MapData.load(DATA_DIR / "golden_single_predicate.json")
    sweep = RobustnessSweep([system_a], jitter=JITTER)
    space = Space1D.log2("sel", -4)
    scenario = SinglePredicateScenario([system_a], space)
    assert_matches_golden(sweep.sweep(scenario), golden)


def test_two_predicate_bit_identical_to_pre_refactor():
    golden = MapData.load(DATA_DIR / "golden_two_predicate.json")
    assert golden.aborted.any()  # the golden exercises budget censoring
    systems = list(build_three_systems(CONFIG).values())
    sweep = RobustnessSweep(systems, jitter=JITTER, budget_seconds=0.05)
    space = Space2D.log2("a", "b", -3)
    scenario = TwoPredicateScenario(systems, space)
    assert_matches_golden(sweep.sweep(scenario), golden)


def test_parallel_spec_bit_identical_to_golden():
    golden = MapData.load(DATA_DIR / "golden_single_predicate.json")
    engine = ParallelSweep(build_system_a, jitter=JITTER, n_workers=2)
    spec = SinglePredicateScenario.build_spec(Space1D.log2("sel", -4))
    assert_matches_golden(engine.sweep(spec), golden)


# ---------------------------------------------------------------------------
# the new §4 scenarios: engine reachability + serial/parallel identity
# ---------------------------------------------------------------------------


def test_sort_spill_serial_parallel_bit_identical():
    scenario = SortSpillScenario(
        OperatorBench(), SORT_ROWS, SORT_MEMORY, row_bytes=128
    )
    serial = RobustnessSweep(scenario.providers()).sweep(scenario)
    assert serial.times.shape == (2, len(SORT_ROWS), len(SORT_MEMORY))
    assert [axis.name for axis in serial.axes] == ["input_rows", "memory_bytes"]
    engine = ParallelSweep(operator_bench_factory, n_workers=2)
    parallel = engine.sweep(scenario.spec())
    assert_identical(parallel, serial)


def test_sort_spill_shows_the_paper_cliff():
    """§4: the all-or-nothing sort spills everything at the boundary."""
    scenario = SortSpillScenario(
        OperatorBench(), SORT_ROWS, SORT_MEMORY, row_bytes=128
    )
    mapdata = scenario.run()
    # 128 KiB / 128 B = 1024 rows: the first column's boundary sits
    # between the first and second row counts.
    aon = mapdata.times_for("sort.all-or-nothing")[:, 0]
    graceful = mapdata.times_for("sort.graceful")[:, 0]
    jump_aon = aon[1] / aon[0]
    jump_graceful = graceful[1] / graceful[0]
    assert jump_aon > 2.0  # discontinuous cliff
    assert jump_graceful < jump_aon  # graceful degrades more smoothly
    # Above the boundary, graceful is never costlier than all-or-nothing.
    assert np.all(graceful[1:] <= aon[1:] + 1e-12)


def test_memory_sweep_serial_parallel_bit_identical(system_a):
    space = Space1D.log2("sel", -3)
    memory_axis = [4 * 1024, 1024 * 1024]
    scenario = MemorySweepScenario([system_a], space, memory_axis)
    serial = RobustnessSweep([system_a]).sweep(scenario)
    assert serial.times.shape == (7, space.n_points, len(memory_axis))
    engine = ParallelSweep(build_system_a, n_workers=2)
    parallel = engine.sweep(scenario.spec())
    assert_identical(parallel, serial)


def test_memory_sweep_exercises_the_memory_knob(system_a):
    """Per-cell memory budgets must actually change plan costs."""
    scenario = MemorySweepScenario(
        [system_a], Space1D.log2("sel", -3), [4 * 1024, 1024 * 1024]
    )
    mapdata = scenario.run()
    starved = mapdata.times[:, :, 0]
    roomy = mapdata.times[:, :, 1]
    # Hash/sort workspace plans spill when starved ...
    assert np.nanmax(starved / roomy) > 1.05
    # ... while the table scan never touches workspace memory.
    scan = mapdata.plan_index("A.table_scan")
    assert np.allclose(starved[scan], roomy[scan])


def test_scenario_partial_cells_merge(system_a):
    scenario = MemorySweepScenario(
        [system_a], Space1D.log2("sel", -2), [8 * 1024, 512 * 1024]
    )
    sweep = RobustnessSweep([system_a])
    full = sweep.sweep(scenario)
    part_a = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 2, 4]))
    part_b = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 3, 5]))
    assert part_a.is_partial and part_b.is_partial
    merged = MapData.merge([part_b, part_a])
    assert_identical(merged, full)


# ---------------------------------------------------------------------------
# the join scenario (Figs 4-5): identity, landmark, golden, edge cases
# ---------------------------------------------------------------------------

JOIN_ROWS = [128, 256, 512]


def tiny_join_scenario() -> JoinScenario:
    return JoinScenario(
        OperatorBench(), JOIN_ROWS, JOIN_ROWS, row_bytes=16, key_domain=1 << 12
    )


def test_join_serial_parallel_bit_identical():
    scenario = tiny_join_scenario()
    serial = RobustnessSweep(
        scenario.providers(), memory_bytes=8192
    ).sweep(scenario)
    assert serial.times.shape == (4, len(JOIN_ROWS), len(JOIN_ROWS))
    assert [axis.name for axis in serial.axes] == ["build_rows", "probe_rows"]
    engine = ParallelSweep(
        operator_bench_factory, memory_bytes=8192, n_workers=2
    )
    parallel = engine.sweep(scenario.spec())
    assert_identical(parallel, serial)


def test_join_matches_golden_fixture():
    """Bit-identity against the measured map this PR recorded."""
    golden = MapData.load(DATA_DIR / "golden_join.json")
    scenario = JoinScenario(
        OperatorBench(), JOIN_ROWS, JOIN_ROWS, row_bytes=16,
        key_domain=1 << 12, seed=2009,
    )
    mapdata = scenario.run(memory_bytes=8192)
    assert_identical(mapdata, golden)


def test_join_symmetry_landmark():
    """Merge join's map is symmetric; hash joins' maps are not (Fig 5)."""
    mapdata = tiny_join_scenario().run(memory_bytes=4096)
    merge_sym = symmetry_score(mapdata.times_for("join.merge"))
    hash_sym = symmetry_score(mapdata.times_for("join.hash.graceful"))
    assert merge_sym < 0.02
    assert hash_sym > max(0.02, merge_sym)


def test_join_scenario_handles_empty_inputs():
    scenario = JoinScenario(
        OperatorBench(), [0, 64], [0, 64], row_bytes=16, key_domain=256
    )
    mapdata = scenario.run(memory_bytes=4096)
    assert mapdata.rows[0, 0] == 0
    assert mapdata.rows[0, 1] == 0  # empty build x non-empty probe
    assert mapdata.rows[1, 0] == 0
    assert not mapdata.aborted.any()


def test_join_spec_round_trip_2d_and_3d(system_a):
    flat = tiny_join_scenario()
    spec = flat.spec()
    assert spec.grid_shape == (3, 3)
    rebuilt = build_scenario(spec, [OperatorBench()])
    assert isinstance(rebuilt, JoinScenario)
    assert_identical(
        RobustnessSweep(rebuilt.providers(), memory_bytes=8192).sweep(rebuilt),
        RobustnessSweep(flat.providers(), memory_bytes=8192).sweep(flat),
    )

    cube = JoinScenario(
        OperatorBench(), [64, 128], [64, 128],
        memory_targets=[2048, 65536], key_domain=256,
    )
    assert cube.spec().grid_shape == (2, 2, 2)
    mapdata = cube.run()
    assert mapdata.times.shape == (4, 2, 2, 2)
    assert [axis.name for axis in mapdata.axes] == [
        "build_rows", "probe_rows", "memory_bytes",
    ]
    # The per-cell memory knob must matter for the spilling hash join.
    starved = mapdata.times_for("join.hash.all-or-nothing")[1, :, 0]
    roomy = mapdata.times_for("join.hash.all-or-nothing")[1, :, 1]
    assert np.all(starved > roomy)


def test_join_baseline_seconds_positive():
    scenario = tiny_join_scenario()
    assert scenario.baseline_seconds() > 0


# ---------------------------------------------------------------------------
# specs and the registry
# ---------------------------------------------------------------------------


def test_registry_contains_all_scenarios():
    assert {
        "single-predicate",
        "two-predicate",
        "sort-spill",
        "memory-sweep",
        "join",
    } <= set(SCENARIO_TYPES)


# (Spec round trips, pickling and rebuilt-sweep identity are one property
# over every registered class: tests/test_scenario_contract.py.)


def test_unknown_scenario_name_raises(system_a):
    with pytest.raises(ExperimentError, match="unknown scenario"):
        build_scenario(ScenarioSpec("no-such", {"axes": []}), [system_a])


def test_sort_spill_spec_runs_with_foreign_providers(system_a):
    """Bare operators need a provider's environment and nothing else of it."""
    scenario = SortSpillScenario(OperatorBench(), [512, 1024], [64 * 1024])
    foreign, own = build_scenario(scenario.spec(), [system_a]).run(), scenario.run()
    assert np.array_equal(foreign.times, own.times)
    assert np.array_equal(foreign.rows, own.rows)


# ---------------------------------------------------------------------------
# merge on partial maps with aborted (budget-censored) cells
# ---------------------------------------------------------------------------


def test_merge_partial_maps_with_aborted_cells(system_a):
    space = Space1D.log2("sel", -3)
    sweep = RobustnessSweep([system_a], budget_seconds=1e-4)
    scenario = SinglePredicateScenario([system_a], space)
    full = sweep.sweep(scenario)
    assert full.aborted.any()  # budget actually censored something
    part_a = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 3]))
    part_b = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 2]))
    merged = MapData.merge([part_a, part_b])
    assert np.array_equal(merged.aborted, full.aborted)
    assert merged.aborted.any()
    # Censored cells are NaN in times and flagged in aborted.
    assert np.isnan(merged.times[merged.aborted]).all()
    assert_identical(merged, full)


def test_merge_rejects_axis_name_mismatch():
    def tiny(axis_name):
        return MapData(
            plan_ids=["p"],
            times=np.array([[1.0, np.nan]]),
            aborted=np.array([[False, True]]),
            rows=np.array([1, 2]),
            meta={"cells": [0, 1]},
            axes=[MapAxis(axis_name, np.array([0.5, 1.0]))],
        )

    with pytest.raises(ExperimentError, match="axis arrays differ"):
        MapData.merge([tiny("selectivity"), tiny("memory_bytes")])


# ---------------------------------------------------------------------------
# N-D MapData
# ---------------------------------------------------------------------------


def make_3d_map() -> MapData:
    rng = np.random.default_rng(11)
    times = rng.uniform(0.1, 2.0, size=(2, 3, 2, 2))
    times[0, 1, 0, 1] = np.nan
    return MapData(
        plan_ids=["p1", "p2"],
        times=times,
        aborted=np.isnan(times),
        rows=np.arange(12, dtype=np.int64).reshape(3, 2, 2),
        meta={"sweep": "synthetic"},
        axes=[
            MapAxis("selectivity", np.array([0.25, 0.5, 1.0])),
            MapAxis("memory_bytes", np.array([1024.0, 4096.0])),
            MapAxis("input_rows", np.array([64.0, 128.0])),
        ],
    )


def test_3d_mapdata_roundtrip(tmp_path):
    mapdata = make_3d_map()
    assert len(mapdata.axes) == 3
    assert mapdata.grid_shape == (3, 2, 2)
    path = tmp_path / "map3d.json"
    mapdata.save(path)
    loaded = MapData.load(path)
    assert np.array_equal(loaded.times, mapdata.times, equal_nan=True)
    assert np.array_equal(loaded.rows, mapdata.rows)
    assert [axis.name for axis in loaded.axes] == [
        "selectivity",
        "memory_bytes",
        "input_rows",
    ]
    assert loaded.axis("input_rows").n_points == 2
    with pytest.raises(ExperimentError, match="unknown axis"):
        loaded.axis("nope")


def test_3d_mapdata_merge():
    full = make_3d_map()
    n_cells = int(np.prod(full.grid_shape))
    parts = []
    for cells in ([0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]):
        part = MapData(
            plan_ids=full.plan_ids,
            times=np.full_like(full.times, np.nan),
            aborted=np.zeros_like(full.aborted),
            rows=np.zeros_like(full.rows),
            meta={"sweep": "synthetic", "cells": cells},
            axes=list(full.axes),
        )
        idx = np.unravel_index(np.asarray(cells), full.grid_shape)
        part.times[(slice(None), *idx)] = full.times[(slice(None), *idx)]
        part.aborted[(slice(None), *idx)] = full.aborted[(slice(None), *idx)]
        part.rows[idx] = full.rows[idx]
        parts.append(part)
    merged = MapData.merge(parts)
    assert not merged.is_partial
    assert np.array_equal(merged.times, full.times, equal_nan=True)
    assert np.array_equal(merged.aborted, full.aborted)
    assert np.array_equal(merged.rows, full.rows)
    assert n_cells == 12


def test_mapdata_axis_count_validation():
    with pytest.raises(ExperimentError, match="axes"):
        MapData(
            plan_ids=["p"],
            times=np.zeros((1, 2, 2)),
            aborted=np.zeros((1, 2, 2), dtype=bool),
            rows=np.zeros((2, 2), dtype=np.int64),
            axes=[MapAxis("only-one", np.array([0.5, 1.0]))],
        )
    with pytest.raises(ExperimentError, match="points"):
        MapData(
            plan_ids=["p"],
            times=np.zeros((1, 3)),
            aborted=np.zeros((1, 3), dtype=bool),
            rows=np.zeros(3, dtype=np.int64),
            axes=[MapAxis("x", np.array([0.5, 1.0]))],
        )
