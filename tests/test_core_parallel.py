"""Parallel sweep engine: chunking, merging, serial/parallel identity."""

import numpy as np
import pytest

from repro.core.driver import DenseGridPolicy
from repro.core.mapdata import MapData
from repro.core.driver import partition_cells
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D, Space2D
from repro.core.progress import ProgressEvent
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import SinglePredicateScenario, TwoPredicateScenario
from repro.errors import ExperimentError
from repro.systems import SystemA, SystemConfig
from repro.workloads import LineitemConfig

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)
JITTER = Jitter(rel=0.02, abs=0.0005, seed=7)


def build_system_a():
    """Module-level factory: picklable for worker processes."""
    return [SystemA(CONFIG)]


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


# ---------------------------------------------------------------------------
# chunk partitioning
# ---------------------------------------------------------------------------


def test_partition_cells_covers_grid_disjointly():
    chunks = partition_cells(13, 4)
    flat = [c for chunk in chunks for c in chunk]
    assert sorted(flat) == list(range(13))
    assert len(chunks) == 4
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) - min(sizes) <= 1


def test_partition_cells_clamps_chunk_count():
    assert partition_cells(3, 10) == [[0], [1], [2]]
    assert partition_cells(5, 1) == [[0, 1, 2, 3, 4]]
    with pytest.raises(ExperimentError):
        partition_cells(0, 2)


# ---------------------------------------------------------------------------
# partial sweeps + merge round out to the full map
# ---------------------------------------------------------------------------


def test_partial_sweeps_merge_to_full_1d(system_a):
    space = Space1D.log2("sel", -4)
    sweep = RobustnessSweep([system_a], jitter=JITTER)
    scenario = SinglePredicateScenario([system_a], space)
    full = sweep.sweep(scenario)
    part_a = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 2, 4]))
    part_b = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 3]))
    assert part_a.is_partial and part_b.is_partial
    assert part_a.filled_cells.tolist() == [0, 2, 4]
    merged = MapData.merge([part_a, part_b])
    assert not merged.is_partial
    assert merged.plan_ids == full.plan_ids
    assert np.array_equal(merged.times, full.times, equal_nan=True)
    assert np.array_equal(merged.aborted, full.aborted)
    assert np.array_equal(merged.rows, full.rows)
    assert merged.meta == full.meta


def test_shuffled_completion_order_merges_bit_identically(system_a):
    """Chunk parts arriving in any completion order yield one map.

    ``ParallelSweep`` sorts parts by first cell index before merging, so
    order-independence holds by construction; this exercises the same
    invariant at the MapData level with adversarial arrival orders.
    """
    import itertools

    space = Space1D.log2("sel", -4)
    sweep = RobustnessSweep([system_a], jitter=JITTER)
    scenario = SinglePredicateScenario([system_a], space)
    chunks = [[0, 1], [2], [3, 4]]
    parts = [
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=chunk))
        for chunk in chunks
    ]
    reference = MapData.merge(
        sorted(parts, key=lambda part: int(part.filled_cells[0]))
    )
    assert not reference.is_partial
    for order in itertools.permutations(parts):
        merged = MapData.merge(list(order))
        assert merged.plan_ids == reference.plan_ids
        assert np.array_equal(merged.times, reference.times, equal_nan=True)
        assert np.array_equal(merged.aborted, reference.aborted)
        assert np.array_equal(merged.rows, reference.rows)
        assert merged.meta == reference.meta


def test_partial_sweep_validates_cells(system_a):
    space = Space1D.log2("sel", -2)
    sweep = RobustnessSweep([system_a])
    scenario = SinglePredicateScenario([system_a], space)
    with pytest.raises(ExperimentError):
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 7]))
    with pytest.raises(ExperimentError):
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 1]))


# ---------------------------------------------------------------------------
# parallel vs serial: bit-identical maps
# ---------------------------------------------------------------------------


def assert_identical(parallel: MapData, serial: MapData) -> None:
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times, equal_nan=True)
    assert np.array_equal(parallel.aborted, serial.aborted)
    assert np.array_equal(parallel.rows, serial.rows)
    assert np.array_equal(parallel.x_targets, serial.x_targets)
    assert np.array_equal(parallel.x_achieved, serial.x_achieved)
    assert parallel.meta == serial.meta


def test_parallel_2d_bit_identical_to_serial(system_a):
    space = Space2D.log2("a", "b", -3)
    serial = TwoPredicateScenario([system_a], space).run(jitter=JITTER)
    engine = ParallelSweep(build_system_a, jitter=JITTER, n_workers=2)
    parallel = engine.sweep(TwoPredicateScenario.build_spec(space.x, space.y))
    assert_identical(parallel, serial)
    assert np.array_equal(parallel.y_targets, serial.y_targets)
    assert np.array_equal(parallel.y_achieved, serial.y_achieved)


def test_parallel_1d_bit_identical_to_serial(system_a):
    space = Space1D.log2("sel", -4)
    serial = SinglePredicateScenario([system_a], space).run()
    engine = ParallelSweep(build_system_a, n_workers=2)
    parallel = engine.sweep(SinglePredicateScenario.build_spec(space))
    assert_identical(parallel, serial)


def test_parallel_serial_fallback_matches(system_a):
    space = Space1D.log2("sel", -3)
    serial = SinglePredicateScenario([system_a], space).run()
    engine = ParallelSweep(build_system_a, n_workers=0)
    fallback = engine.sweep(SinglePredicateScenario.build_spec(space))
    assert_identical(fallback, serial)


def test_parallel_empty_cell_policy_matches_serial(system_a):
    """No front door can hand in an empty cell list: both engines refuse
    one (it used to yield an all-NaN partial map by a path of its own)."""
    space = Space1D.log2("sel", -2)
    scenario = SinglePredicateScenario([system_a], space)
    with pytest.raises(ExperimentError, match="at least one cell"):
        RobustnessSweep([system_a]).sweep(scenario, policy=DenseGridPolicy(cells=[]))
    engine = ParallelSweep(build_system_a, n_workers=2)
    with pytest.raises(ExperimentError, match="at least one cell"):
        engine.sweep(scenario.spec(), policy=DenseGridPolicy(cells=[]))


def test_parallel_reports_chunk_progress():
    space = Space1D.log2("sel", -3)
    events = []
    engine = ParallelSweep(build_system_a, n_workers=2, progress=events.append)
    engine.sweep(SinglePredicateScenario.build_spec(space))
    assert events
    # Structured events, no string sniffing: every field is typed.
    assert all(isinstance(event, ProgressEvent) for event in events)
    assert all(event.kind == "chunk" for event in events)
    # Eight chunks for two workers, at most one per cell.
    assert [event.parts_done for event in events] == [1, 2, 3, 4]
    last = events[-1]
    assert last.done == last.total == 4
    assert last.elapsed >= 0.0
    # ... while the rendered line keeps the familiar shape.
    assert "sweep: 4/4 cells" in last.render()
    assert "eta" in events[0].render() or events[0].done == events[0].total


# ---------------------------------------------------------------------------
# duplicate plan id detection (dict-collision bugfix)
# ---------------------------------------------------------------------------


def test_duplicate_plan_ids_raise(system_a):
    twin = SystemA(CONFIG)  # same name -> identical qualified plan ids
    twins = [system_a, twin]
    with pytest.raises(ExperimentError, match="duplicate plan ids"):
        SinglePredicateScenario(twins, Space1D.log2("sel", -2)).run()
    with pytest.raises(ExperimentError, match="duplicate plan ids"):
        TwoPredicateScenario(twins, Space2D.log2("a", "b", -1)).run()
