"""SweepDriver + cell policies: dense bit-identity, adaptive refinement.

The acceptance contract of the adaptive policy: every cell it measures
is bit-identical to the dense sweep's measurement of that cell, the
refined map reaches the dense map's grid resolution, and a 25% cell
budget suffices on the two-predicate and join scenarios.
"""

import numpy as np
import pytest

from repro.core.driver import (
    AdaptiveRefinePolicy,
    DenseGridPolicy,
    SweepDriver,
    SweepState,
)
from repro.core.mapdata import MapAxis, MapData
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space2D
from repro.core.progress import ProgressEvent
from repro.core.runner import RobustnessSweep
from repro.core.scenario import (
    JoinScenario,
    OperatorBench,
    TwoPredicateScenario,
    operator_bench_factory,
)
from repro.errors import ExperimentError
from repro.systems import SystemA, SystemConfig
from repro.workloads import LineitemConfig

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)

JOIN_ROWS = [64, 96, 128, 192, 256, 384, 512, 768, 1024]
JOIN_MEMORY = 8192


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


def join_scenario() -> JoinScenario:
    return JoinScenario(
        OperatorBench(), JOIN_ROWS, JOIN_ROWS, row_bytes=16, key_domain=1 << 12
    )


@pytest.fixture(scope="module")
def join_dense():
    scenario = join_scenario()
    return RobustnessSweep(
        scenario.providers(), memory_bytes=JOIN_MEMORY
    ).sweep(scenario)


def adaptive_join(**policy_kwargs) -> MapData:
    scenario = join_scenario()
    return RobustnessSweep(
        scenario.providers(), memory_bytes=JOIN_MEMORY
    ).sweep(scenario, policy=AdaptiveRefinePolicy(**policy_kwargs))


def assert_agrees_on_measured(refined: MapData, dense: MapData) -> None:
    """Every measured cell of the refined map equals the dense map's."""
    cells = refined.filled_cells
    flat_r = refined.times.reshape(refined.n_plans, -1)[:, cells]
    flat_d = dense.times.reshape(dense.n_plans, -1)[:, cells]
    assert np.array_equal(flat_r, flat_d, equal_nan=True)
    assert np.array_equal(
        refined.aborted.reshape(refined.n_plans, -1)[:, cells],
        dense.aborted.reshape(dense.n_plans, -1)[:, cells],
    )
    assert np.array_equal(
        np.asarray(refined.rows).reshape(-1)[cells],
        np.asarray(dense.rows).reshape(-1)[cells],
    )


# ---------------------------------------------------------------------------
# dense policy: bit-identical front-end over the driver
# ---------------------------------------------------------------------------


def test_dense_policy_is_the_default_path(system_a):
    space = Space2D.log2("a", "b", -3)
    scenario = TwoPredicateScenario([system_a], space)
    sweep = RobustnessSweep([system_a])
    default = sweep.sweep(scenario)
    explicit = sweep.sweep(scenario, policy=DenseGridPolicy())
    assert default.plan_ids == explicit.plan_ids
    assert np.array_equal(default.times, explicit.times, equal_nan=True)
    assert default.meta == explicit.meta  # no policy meta on dense maps
    assert "policy" not in default.meta
    assert not default.is_partial


def test_dense_policy_validates_explicit_cells():
    state = SweepState(shape=(2, 2))
    with pytest.raises(ExperimentError, match="out of range"):
        DenseGridPolicy(cells=[0, 7]).next_wave(state)
    with pytest.raises(ExperimentError, match="duplicate"):
        DenseGridPolicy(cells=[1, 1]).next_wave(state)


def test_cells_and_policy_are_mutually_exclusive(system_a):
    """A cell list rides in the policy; ``cells=`` beside it is refused."""
    space = Space2D.log2("a", "b", -1)
    scenario = TwoPredicateScenario([system_a], space)
    with pytest.raises(TypeError, match="cells"):
        RobustnessSweep([system_a]).sweep(
            scenario, cells=[0], policy=DenseGridPolicy()
        )
    with pytest.raises(TypeError, match="cells"):
        scenario.run(cells=[0])
    part = RobustnessSweep([system_a]).sweep(
        scenario, policy=DenseGridPolicy(cells=[0])
    )
    assert part.meta["cells"] == [0]


# ---------------------------------------------------------------------------
# adaptive refinement: agreement, determinism, budget
# ---------------------------------------------------------------------------


def test_adaptive_join_agrees_exactly_with_dense(join_dense):
    refined = adaptive_join()
    assert refined.grid_shape == join_dense.grid_shape  # target resolution
    assert refined.meta["policy"] == "adaptive-refine"
    assert refined.meta["refine_rounds"] >= 2
    measured = int(refined.measured_mask.sum())
    assert 0 < measured < join_dense.times[0].size
    assert_agrees_on_measured(refined, join_dense)


def test_adaptive_join_quarter_budget(join_dense):
    """The ISSUE's acceptance: target resolution from <= 25% of the cells."""
    n_cells = int(np.prod(join_dense.grid_shape))
    budget = n_cells // 4
    refined = adaptive_join(max_cells=budget)
    assert refined.grid_shape == join_dense.grid_shape
    assert int(refined.measured_mask.sum()) <= budget
    assert_agrees_on_measured(refined, join_dense)
    # The budget went to structure: the densified map still carries the
    # landmarks (merge symmetric on measured cells, hash join not).
    from repro.core.landmarks import symmetry_score

    dense_merge = symmetry_score(join_dense.times_for("join.merge"))
    refined_full = refined.densify()
    assert symmetry_score(refined_full.measured_times("join.merge")) < 0.02
    assert (
        symmetry_score(refined_full.measured_times("join.hash.graceful"))
        > max(0.02, dense_merge)
    )


def test_adaptive_join_is_deterministic():
    first = adaptive_join(max_cells=30)
    second = adaptive_join(max_cells=30)
    assert first.filled_cells.tolist() == second.filled_cells.tolist()
    assert np.array_equal(first.times, second.times, equal_nan=True)
    assert first.meta == second.meta


def test_adaptive_two_predicate_quarter_budget(system_a):
    space = Space2D.log2("a", "b", -8)
    scenario = TwoPredicateScenario([system_a], space)
    sweep = RobustnessSweep([system_a])
    dense = sweep.sweep(scenario)
    budget = dense.times[0].size // 4
    refined = sweep.sweep(
        scenario, policy=AdaptiveRefinePolicy(max_cells=budget)
    )
    assert refined.grid_shape == dense.grid_shape
    assert int(refined.measured_mask.sum()) <= budget
    assert_agrees_on_measured(refined, dense)
    # The interpolation view is a faithful stand-in for the dense map.
    filled = refined.densify()
    assert not filled.is_partial
    rel_err = np.abs(filled.times - dense.times) / dense.times
    assert np.nanmax(rel_err) < 0.5


def test_adaptive_parallel_bit_identical_to_serial():
    serial = adaptive_join(max_cells=40)
    engine = ParallelSweep(
        operator_bench_factory,
        memory_bytes=JOIN_MEMORY,
        n_workers=2,
    )
    parallel = engine.sweep(
        join_scenario().spec(), policy=AdaptiveRefinePolicy(max_cells=40)
    )
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times, equal_nan=True)
    assert np.array_equal(parallel.aborted, serial.aborted)
    assert np.array_equal(parallel.rows, serial.rows)
    assert parallel.meta == serial.meta


def test_adaptive_refines_censored_cliffs():
    """Budget-censored corners force refinement around the censored zone."""
    scenario = join_scenario()
    sweep = RobustnessSweep(
        scenario.providers(),
        memory_bytes=JOIN_MEMORY,
        budget_seconds=scenario.baseline_seconds() * 2.0,
    )
    dense = sweep.sweep(scenario)
    assert dense.aborted.any()  # the budget actually censors something
    refined = sweep.sweep(scenario, policy=AdaptiveRefinePolicy())
    assert_agrees_on_measured(refined, dense)
    measured = refined.measured_mask
    # A plan censored on part of the grid marks a cliff; its boundary
    # must be resolved at full resolution (a censored measured cell
    # adjacent to an uncensored measured one for the same plan).
    partially_censored = [
        p
        for p in range(refined.n_plans)
        if 0 < refined.aborted[p][measured].sum() < measured.sum()
    ]
    assert partially_censored
    boundary_resolved = False
    for p in partially_censored:
        cen = np.argwhere(refined.aborted[p] & measured)
        unc = np.argwhere(~refined.aborted[p] & measured & ~np.isnan(refined.times[p]))
        if not cen.size or not unc.size:
            continue
        gaps = np.abs(cen[:, None, :] - unc[None, :, :]).max(axis=2).min(axis=1)
        boundary_resolved = boundary_resolved or gaps.min() == 1
    assert boundary_resolved
    # A plan censored everywhere must not drag the grid to full
    # resolution on its own.
    assert measured.sum() < refined.times[0].size


def test_box_score_at_the_edges_of_its_input():
    """A box no plan finished in has nothing to find; a free plan or a
    lone plan cannot form a quotient to best."""
    policy = AdaptiveRefinePolicy()

    def score(times):
        return policy._score(synthetic_times(np.asarray(times, dtype=float)), [0, 1])

    assert score([[np.nan, np.nan], [np.nan, np.nan]]) == 0.0
    assert score([[0.0, 1.0], [2.0, 3.0]]) == np.inf
    assert score([[1.0, 4.0]]) == 3.0  # one plan: its own relative spread


def test_adaptive_policy_validation():
    with pytest.raises(ExperimentError, match="initial_step"):
        AdaptiveRefinePolicy(initial_step=0)
    with pytest.raises(ExperimentError, match="max_cells"):
        AdaptiveRefinePolicy(max_cells=0)


def test_driver_round_events_only_for_multi_round_policies(system_a):
    space = Space2D.log2("a", "b", -8)
    scenario = TwoPredicateScenario([system_a], space)
    events = []
    sweep = RobustnessSweep([system_a], progress=events.append)
    sweep.sweep(scenario)
    assert all(event.kind == "cell" for event in events)

    events.clear()
    sweep.sweep(scenario, policy=AdaptiveRefinePolicy())
    rounds = [event for event in events if event.kind == "round"]
    assert rounds, "adaptive sweeps report per-round progress"
    assert all(isinstance(event, ProgressEvent) for event in events)
    assert rounds[0].round_index == 1
    assert rounds[-1].done == sum(r.wave_cells for r in rounds)


# ---------------------------------------------------------------------------
# densify: the interpolation view
# ---------------------------------------------------------------------------


def synthetic_partial(times_fn, cells, shape=(5, 5)) -> MapData:
    n_cells = int(np.prod(shape))
    times = np.full((1, *shape), np.nan)
    for flat in cells:
        idx = np.unravel_index(flat, shape)
        times[(0, *idx)] = times_fn(*idx)
    return MapData(
        plan_ids=["p"],
        times=times,
        aborted=np.zeros((1, *shape), dtype=bool),
        rows=np.zeros(shape, dtype=np.int64),
        meta={"cells": sorted(int(c) for c in cells)},
        axes=[
            MapAxis("x", np.arange(1.0, shape[0] + 1)),
            MapAxis("y", np.arange(1.0, shape[1] + 1)),
        ],
    )


def synthetic_times(times):
    """A complete 1-D map holding ``times[plan, cell]``."""
    n_plans, n_cells = times.shape
    return MapData(
        plan_ids=[f"p{p}" for p in range(n_plans)],
        times=times,
        aborted=np.isnan(times),
        rows=np.zeros(n_cells, dtype=int),
        axes=[MapAxis("x", np.arange(1.0, n_cells + 1))],
    )


def test_densify_copies_nearest_measured_cell():
    mapdata = synthetic_partial(lambda i, j: 10.0 * i + j, cells=[0, 24])
    filled = mapdata.densify()
    assert not filled.is_partial
    assert filled.meta["densified"] is True
    assert filled.meta["measured_cells"] == [0, 24]
    # Cells nearer (0,0) copy its value; cells nearer (4,4) copy 44.
    assert filled.times[0, 1, 1] == 0.0
    assert filled.times[0, 3, 3] == 44.0
    # Measured cells pass through bit-identically.
    assert filled.times[0, 0, 0] == 0.0 and filled.times[0, 4, 4] == 44.0
    # measured_times stays honest after densification.
    assert np.isnan(filled.measured_times("p")[1, 1])
    assert filled.measured_times("p")[0, 0] == 0.0
    assert int(filled.measured_mask.sum()) == 2


def test_densify_preserves_symmetry_of_symmetric_samples():
    """A symmetric measurement set must densify to a symmetric grid."""
    cells = [0, 2, 4, 10, 12, 14, 20, 22, 24, 6, 18]  # symmetric pattern
    mapdata = synthetic_partial(lambda i, j: float(i + j), cells=cells)
    mask = mapdata.measured_mask
    assert np.array_equal(mask, mask.T)
    filled = mapdata.densify().times[0]
    assert np.array_equal(filled, filled.T)


def test_densify_blocked_distance_pass_matches_one_shot(monkeypatch):
    """Shrinking the block size must not change a single filled cell."""
    import repro.core.mapdata as mapdata_module

    mapdata = synthetic_partial(
        lambda i, j: 10.0 * i + j, cells=[0, 7, 11, 18, 24]
    )
    one_shot = mapdata.densify()
    monkeypatch.setattr(mapdata_module, "DENSIFY_BLOCK_ENTRIES", 7)
    blocked = mapdata.densify()
    assert np.array_equal(blocked.times, one_shot.times, equal_nan=True)
    assert blocked.meta == one_shot.meta


def test_densify_complete_map_is_identity():
    mapdata = synthetic_partial(lambda i, j: 1.0, cells=list(range(25)))
    mapdata.meta.pop("cells")
    assert mapdata.densify() is mapdata


def test_densify_keeps_censored_cells_censored(join_dense):
    scenario = join_scenario()
    sweep = RobustnessSweep(
        scenario.providers(),
        memory_bytes=JOIN_MEMORY,
        budget_seconds=scenario.baseline_seconds() * 2.0,
    )
    refined = sweep.sweep(scenario, policy=AdaptiveRefinePolicy())
    filled = refined.densify()
    assert filled.aborted.any()
    # Aborted cells are NaN, never averaged into a fake finite cost.
    assert np.isnan(filled.times[filled.aborted]).all()
    assert not np.isnan(filled.times[~filled.aborted]).any()
