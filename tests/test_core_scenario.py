"""Scenario abstraction: golden bit-identity, new scenarios, N-D MapData.

The golden files under ``tests/data/`` were produced by the sweep
implementations that predate the Scenario abstraction; the scenario API
must reproduce them bit-for-bit — times, aborted flags, rows, axis
arrays, and meta modulo the added ``scenario`` key.
"""

import multiprocessing
import os
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
from repro.storage.btree import BPlusTree
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


def test_dense_key_join_map_matches_pinned_digest():
    """A join map whose every cell takes the counting join: the sha256
    of its JSON, as the sort-only join produced it."""
    import hashlib
    import json

    from repro.storage.btree import DENSE_SPAN_PER_ROW

    pin = json.loads((DATA_DIR / "golden_join_dense_sha256.json").read_text())
    scenario = JoinScenario(
        OperatorBench(),
        pin["build_rows"],
        pin["probe_rows"],
        row_bytes=pin["row_bytes"],
        key_domain=pin["key_domain"],
        seed=pin["seed"],
    )
    for n_build in pin["build_rows"]:
        for n_probe in pin["probe_rows"]:
            keys = np.concatenate(
                (scenario.input_values(n_build), scenario.input_values(n_probe))
            )
            span = int(keys.max()) - int(keys.min()) + 1
            assert span <= DENSE_SPAN_PER_ROW * keys.size
    mapdata = scenario.run(memory_bytes=pin["memory_bytes"])
    encoded = json.dumps(
        mapdata.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode()
    assert hashlib.sha256(encoded).hexdigest() == pin["map_sha256"]


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


def test_operator_inputs_are_drawn_once_and_read_only():
    """Every cell and plan shares one input array per row count; an
    operator writing into it would change the next cell's input."""
    scenario = tiny_join_scenario()
    values = scenario.input_values(128)
    assert scenario.input_values(128) is values
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1


JOIN_ROWS_15 = [64 + 16 * i for i in range(15)]


def record_index_loads(monkeypatch, record) -> None:
    """Call ``record(n_keys)`` at every non-empty B-tree bulk load."""
    real = BPlusTree.bulk_load

    def bulk_load(self, keys, payload, *args, **kwargs):
        if len(keys):
            record(len(keys))
        return real(self, keys, payload, *args, **kwargs)

    monkeypatch.setattr(BPlusTree, "bulk_load", bulk_load)


def test_join_sweep_loads_one_index_per_build_size(monkeypatch):
    """A serial 15x15 join sweep bulk-loads the index nested-loop join's
    B-tree once per build size (15 loads), not once per cell (225)."""
    loads: list[int] = []
    record_index_loads(monkeypatch, loads.append)
    scenario = JoinScenario(
        OperatorBench(), JOIN_ROWS_15, JOIN_ROWS_15, key_domain=1 << 12
    )
    scenario.run(memory_bytes=8192)
    assert loads == JOIN_ROWS_15


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched bulk load only when forked",
)
def test_pool_join_sweep_loads_each_build_size_in_one_worker(
    monkeypatch, tmp_path
):
    """Under a two-worker pool, whole rows go to one part each, so no
    build size is bulk-loaded by two workers (or twice by one), and the
    map is the serial one."""
    log = tmp_path / "loads.txt"

    def record(n_keys: int) -> None:
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {n_keys}\n")

    record_index_loads(monkeypatch, record)
    scenario = JoinScenario(
        OperatorBench(), JOIN_ROWS_15, JOIN_ROWS_15, key_domain=1 << 12
    )
    engine = ParallelSweep(operator_bench_factory, memory_bytes=8192, n_workers=2)
    parallel = engine.sweep(scenario.spec())
    loads = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(n_keys for _pid, n_keys in loads) == JOIN_ROWS_15
    assert os.getpid() not in {pid for pid, _n_keys in loads}
    monkeypatch.undo()
    assert_identical(parallel, scenario.run(memory_bytes=8192))


@pytest.mark.parametrize("workers", [0, 2])
def test_join_cell_computes_its_result_once(monkeypatch, workers):
    """Each join cell's oracle and its four plans share one join result:
    ``join_matches`` runs once per cell (and once for the merge join the
    budget is scaled from), serially and on a two-worker pool; the map
    is the same either way."""
    import repro.executor.joins as joins
    from repro.bench.harness import BenchSession
    from repro.bench.requests import BenchConfig, MapRequest

    calls = multiprocessing.Value("i", 0)  # forked workers count too
    real_matches = joins.join_matches

    def counting_matches(left, right):
        with calls.get_lock():
            calls.value += 1
        return real_matches(left, right)

    monkeypatch.setattr(joins, "join_matches", counting_matches)
    rows = (512, 1024, 2048, 4096)
    config = BenchConfig(
        n_rows=4096, join_rows=rows, n_workers=workers, cache_dir=None
    )
    mapdata = BenchSession(config).request_map(MapRequest("join"))
    assert mapdata.grid_shape == (len(rows), len(rows))
    assert calls.value == len(rows) ** 2 + 1


@pytest.mark.parametrize("workers", [0, 2])
def test_censored_join_map_matches_its_reference(workers):
    """A join map with most index nested-loop cells censored: times,
    aborted flags and a digest of the captured profiles (each censored
    plan's span tree carries its abort clock), as recorded before the
    join charged its probes in one pass."""
    import hashlib
    import json
    import math

    from repro.bench.harness import BenchSession
    from repro.bench.requests import BenchConfig, MapRequest

    ref = json.loads((DATA_DIR / "censored_join.json").read_text())
    mapdata = BenchSession(
        BenchConfig(
            n_rows=ref["n_rows"],
            join_rows=tuple(ref["join_rows"]),
            budget_scale=ref["budget_scale"],
            n_workers=workers,
            trace=True,
            cache_dir=None,
        )
    ).request_map(MapRequest("join"))
    assert list(mapdata.plan_ids) == ref["plan_ids"]
    assert mapdata.aborted.astype(int).tolist() == ref["aborted"]
    assert ref["aborted"][-1] == [[0, 1, 1], [1, 1, 1], [1, 1, 1]]  # INL
    assert [
        [[None if math.isnan(t) else t for t in row] for row in plane]
        for plane in mapdata.times.tolist()
    ] == ref["seconds"]
    profiles = json.dumps(mapdata.meta["profiles"], sort_keys=True).encode()
    assert hashlib.sha256(profiles).hexdigest() == ref["profiles_sha256"]


@pytest.mark.parametrize("workers", [0, 2])
def test_two_predicate_cell_shares_its_index_payload(monkeypatch, workers):
    """The plans one provider runs at one cell share their uncharged
    index work: System A's four intersection plans intersect their two
    rid lists once (one top-level ``intersect_rids`` per cell, not
    four), and each composite index's span is decoded once per
    (index, ranges) for the filtering scan, the naive or bitmap fetch
    over it and MDAM alike (two decodes per system and cell).  Serially
    and on a two-worker pool."""
    import repro.executor.plans as plans
    from repro.bench.harness import BenchSession
    from repro.bench.requests import BenchConfig, MapRequest
    from repro.storage.codec import CompositeKeyCodec

    intersections = multiprocessing.Value("i", 0)  # forked workers count too
    decodes = multiprocessing.Value("i", 0)
    real_intersect = plans.intersect_rids
    real_decode = CompositeKeyCodec.decode

    def counting_intersect(left, right):
        with intersections.get_lock():
            intersections.value += 1
        return real_intersect(left, right)

    def counting_decode(codec, keys):
        with decodes.get_lock():
            decodes.value += 1
        return real_decode(codec, keys)

    monkeypatch.setattr(plans, "intersect_rids", counting_intersect)
    monkeypatch.setattr(CompositeKeyCodec, "decode", counting_decode)
    config = BenchConfig(
        n_rows=8192, min_exp_2d=-12, n_workers=workers, cache_dir=None
    )
    mapdata = BenchSession(config).request_map(MapRequest("two_predicate"))
    n_cells = 13 * 13
    assert mapdata.grid_shape == (13, 13)
    assert intersections.value == n_cells
    assert decodes.value == 2 * 2 * n_cells


@pytest.mark.parametrize("workers", [0, 2])
def test_censored_two_predicate_map_matches_its_reference(workers):
    """Two-predicate maps with every cell censored (budget scales 0.05
    and 0.01) and with some censored (2.0): times, aborted flags and a
    digest of the captured profiles (each censored plan's span tree
    carries its abort clock), as recorded before MDAM counted its probe
    bounds and a cell's plans shared their index payload."""
    import hashlib
    import json
    import math

    from repro.bench.harness import BenchSession
    from repro.bench.requests import BenchConfig, MapRequest

    ref = json.loads((DATA_DIR / "censored_two_predicate.json").read_text())
    for run in ref["runs"]:
        mapdata = BenchSession(
            BenchConfig(
                n_rows=ref["n_rows"],
                min_exp_2d=ref["min_exp_2d"],
                budget_scale=run["budget_scale"],
                n_workers=workers,
                trace=True,
                cache_dir=None,
            )
        ).request_map(MapRequest("two_predicate"))
        assert list(mapdata.plan_ids) == ref["plan_ids"]
        assert mapdata.aborted.astype(int).tolist() == run["aborted"]
        assert [
            [[None if math.isnan(t) else t for t in row] for row in plane]
            for plane in mapdata.times.tolist()
        ] == run["seconds"]
        profiles = json.dumps(mapdata.meta["profiles"], sort_keys=True).encode()
        assert hashlib.sha256(profiles).hexdigest() == run["profiles_sha256"]
    assert [run["budget_scale"] for run in ref["runs"]] == [0.05, 0.01, 2.0]
    assert all(min(map(min, map(min, run["aborted"]))) for run in ref["runs"][:2])


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
