"""Optimizer subsystem: estimation error, cost model, plan choice."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D
from repro.core.scenario import EstimationErrorScenario
from repro.errors import ExperimentError, PlanError
from repro.executor.joins import join_plan_inventory
from repro.executor.plans import TableScanNode
from repro.optimizer import (
    CardinalityEstimator,
    CostModel,
    Estimate,
    EstimationError,
    MinEstimatedCost,
    MinWorstRegret,
    PenaltyAware,
    PlanChooser,
    box_samples,
    quantity_of,
)
from repro.sim.profile import DeviceProfile
from repro.systems import SystemA, SystemConfig
from repro.workloads import LineitemConfig
from repro.workloads.queries import SinglePredicateQuery, TwoPredicateQuery
from repro.workloads.selectivity import PredicateBuilder

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


def build_system_a():
    """Module-level factory: picklable for worker processes."""
    return [SystemA(CONFIG)]


# ---------------------------------------------------------------------------
# estimation error model
# ---------------------------------------------------------------------------


def test_q_factor_deterministic_and_seeded():
    error = EstimationError(magnitude=1.0, seed=7)
    assert error.q_factor("b", (3,)) == error.q_factor("b", (3,))
    assert error.q_factor("b", (3,)) != error.q_factor("b", (4,))
    assert error.q_factor("b", (3,)) != error.q_factor("out", (3,))
    other_seed = EstimationError(magnitude=1.0, seed=8)
    assert error.q_factor("b", (3,)) != other_seed.q_factor("b", (3,))


def test_magnitude_scales_one_fixed_draw():
    """ln(q) is proportional to magnitude: one draw per cell, amplified."""
    base = EstimationError(magnitude=1.0, seed=7)
    double = base.with_magnitude(2.0)
    log_q = math.log(base.q_factor("b", (5,)))
    assert math.log(double.q_factor("b", (5,))) == pytest.approx(2 * log_q)


def test_zero_magnitude_reproduces_truth():
    estimator = CardinalityEstimator(EstimationError(magnitude=0.0))
    true_cards = {"rows.b": 100.0, "sel.b": 0.25, "rows.out": 100.0}
    estimate = estimator.estimate(true_cards, key=(0,))
    assert estimate.values == true_cards
    assert estimate.uncertainty == 1.0


def test_paired_quantities_perturbed_together():
    estimator = CardinalityEstimator(EstimationError(magnitude=1.5, seed=3))
    estimate = estimator.estimate(
        {"rows.b": 1000.0, "sel.b": 0.1, "rows.out": 500.0}, key=(2,)
    )
    # rows.b and sel.b share the factor; rows.out draws independently.
    assert estimate.values["rows.b"] / 1000.0 == pytest.approx(
        estimate.values["sel.b"] / 0.1
    )
    assert estimate.values["rows.out"] / 500.0 != pytest.approx(
        estimate.values["rows.b"] / 1000.0
    )


def test_selectivity_cap_keeps_rows_consistent():
    """sel.* caps at 1, and the paired rows.* caps with it — an estimate
    can never claim full selectivity alongside more rows than exist."""
    estimator = CardinalityEstimator(
        EstimationError(magnitude=0.0, bias=5.0)
    )
    estimate = estimator.estimate({"sel.b": 0.5, "rows.b": 10.0}, key=())
    assert estimate.values["sel.b"] == 1.0
    assert estimate.values["rows.b"] == pytest.approx(20.0)


def test_negative_magnitude_rejected():
    with pytest.raises(ExperimentError):
        EstimationError(magnitude=-0.1)
    with pytest.raises(ExperimentError):
        Estimate({"rows.b": 1.0}, uncertainty=0.5)


def test_quantity_of():
    assert quantity_of("rows.b") == "b"
    assert quantity_of("sel.extendedprice") == "extendedprice"
    with pytest.raises(ExperimentError):
        quantity_of("rows")


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def test_missing_estimate_is_plan_error(system_a):
    scan = TableScanNode(
        system_a.table,
        [PredicateBuilder(system_a.table, "partkey").range_for_selectivity(0.5)[0]],
    )
    with pytest.raises(PlanError):
        scan.estimated_cost(CostModel(DeviceProfile()), {})


def test_distinct_pages_yao_bounds():
    model = CostModel(DeviceProfile())
    assert model.distinct_pages(100, 0) == 0.0
    assert model.distinct_pages(100, 1) == pytest.approx(1.0)
    assert model.distinct_pages(100, 10**9) == 100.0
    assert 0 < model.distinct_pages(100, 50) < 50


def test_nothing_to_read_costs_nothing():
    """Every charge category prices zero (or fewer) pages and rows at 0.0 —
    no seek for a run that is not read."""
    model = CostModel(DeviceProfile())
    assert model.sequential_read(0) == model.random_reads(0) == 0.0
    assert model.scattered_read(100, 0, coalesce=True) == 0.0
    assert model._rid_spill(0) == 0.0


def test_residual_predicates_are_priced_per_fetched_row(system_a):
    """A fetch that re-checks predicates pays one evaluation per fetched
    row and hands up ``rows.out`` rows, not every row it fetched."""
    from repro.executor import ADAPTIVE_PREFETCH, ColumnRange, FetchNode, IndexRangeRidsNode

    model = system_a.cost_model()
    profile = model.profile
    column = system_a.config.b_column
    rids = IndexRangeRidsNode(system_a.idx_b, ColumnRange(column, 0, 1000))
    residual = [ColumnRange(system_a.config.a_column, 0, 10)]
    est = {f"rows.{column}": 50.0, f"sel.{column}": 0.1, "rows.out": 5.0}
    plain = FetchNode(rids, system_a.table, ADAPTIVE_PREFETCH)
    rechecked = FetchNode(rids, system_a.table, ADAPTIVE_PREFETCH, residual=residual)
    assert rechecked.estimated_cost(model, est) - plain.estimated_cost(
        model, est
    ) == pytest.approx(50.0 * profile.cpu_predicate - 45.0 * profile.cpu_row)


def test_rid_set_costs_spill_when_memory_is_tight():
    roomy = CostModel(DeviceProfile(), memory_bytes=1 << 30)
    tight = CostModel(DeviceProfile(), memory_bytes=1 << 10)
    assert roomy.sort_rids_cost(4096) == roomy.sort_cpu(4096)
    assert tight.sort_rids_cost(4096) > roomy.sort_rids_cost(4096)
    # Only the build side has to fit: a small build never spills.
    assert tight.rid_hash_cost(8, 4096) == roomy.rid_hash_cost(8, 4096)
    assert tight.rid_hash_cost(4096, 8) > roomy.rid_hash_cost(4096, 8)


def test_table_scan_cost_independent_of_estimates(system_a):
    """Scan cost barely moves with rows.out; index cost tracks rows."""
    model = system_a.cost_model()
    scan = TableScanNode(system_a.table, [])
    assert scan.estimated_cost(model, {}) > 0
    builder = PredicateBuilder(system_a.table, system_a.config.b_column)
    predicate, _ach = builder.range_for_selectivity(0.25)
    query = SinglePredicateQuery(predicate)
    plans = system_a.plans_for(query)
    improved = plans["A.idx_improved"]
    small = dict(system_a.true_cards(query))
    large = dict(small)
    column = system_a.config.b_column
    large[f"rows.{column}"] = system_a.table.n_rows
    large[f"sel.{column}"] = 1.0
    large["rows.out"] = system_a.table.n_rows
    assert improved.estimated_cost(model, large) > improved.estimated_cost(
        model, small
    )


def test_true_cards_two_predicate(system_a):
    """Only the estimation map's single-predicate template has oracle
    cardinalities; every other query is refused."""
    col_a, col_b = system_a.config.a_column, system_a.config.b_column
    query = TwoPredicateQuery(
        PredicateBuilder(system_a.table, col_a).range_for_selectivity(0.1)[0],
        PredicateBuilder(system_a.table, col_b).range_for_selectivity(0.1)[0],
    )
    for refused in (query, object()):
        with pytest.raises(PlanError):
            system_a.true_cards(refused)


def test_unpriced_node_is_plan_error():
    """Only the estimation map's candidates are priced; the rest say so."""
    model = CostModel(DeviceProfile())
    keys = np.arange(8, dtype=np.int64)
    for plan in join_plan_inventory(keys, keys).values():
        with pytest.raises(PlanError, match="no compile-time cost model"):
            model.cost(plan, {"rows.out": 8.0})


# ---------------------------------------------------------------------------
# selection policies
# ---------------------------------------------------------------------------


def test_box_samples_shape_and_determinism():
    values = {"rows.b": 10.0, "sel.b": 0.1, "rows.out": 5.0}
    samples = box_samples(values, 2.0)
    assert len(samples) == 9  # 3^2 over the two base quantities {b, out}
    assert samples == box_samples(values, 2.0)
    assert box_samples(values, 1.0) == [values]
    # rows.b and sel.b always scale together, even at the sel = 1 cap.
    for sample in samples:
        assert sample["sel.b"] <= 1.0
        assert sample["rows.b"] / 10.0 == pytest.approx(
            sample["sel.b"] / 0.1
        )


def _costs_at(values):
    """Synthetic two-plan inventory: a flat plan and an estimate-chaser."""
    x = values["rows.x"]
    return {"steady": 3.0, "trap": 1.0 + x * x / 100.0}


def test_classic_trusts_the_point_estimate():
    estimate = Estimate({"rows.x": 10.0}, uncertainty=10.0)
    assert MinEstimatedCost().choose(_costs_at, estimate) == "trap"


def test_min_worst_regret_hedges():
    # Over the box x in {1, 10, 100}: trap costs {1.01, 2, 101} and its
    # worst regret is ~34x (at x=100); steady's is ~3x (at x=1).
    estimate = Estimate({"rows.x": 10.0}, uncertainty=10.0)
    assert MinWorstRegret().choose(_costs_at, estimate) == "steady"
    # Trusting the point estimate (u=1) degenerates to the classic pick.
    assert MinWorstRegret(uncertainty=1.0).choose(_costs_at, estimate) == "trap"


def test_penalty_aware_weight_interpolates():
    estimate = Estimate({"rows.x": 10.0}, uncertainty=10.0)
    # Zero weight: pure expected cost -> steady (trap's x=100 corner
    # dominates its mean); a large weight only reinforces that.
    assert PenaltyAware(penalty_weight=0.0).choose(_costs_at, estimate) == "steady"
    assert PenaltyAware(penalty_weight=10.0).choose(_costs_at, estimate) == "steady"


def test_ties_break_lexicographically():
    estimate = Estimate({"rows.x": 1.0})
    costs = lambda values: {"b": 1.0, "a": 1.0, "c": 1.0}  # noqa: E731
    assert MinEstimatedCost().choose(costs, estimate) == "a"
    assert MinWorstRegret().choose(costs, estimate) == "a"


def test_chooser_rejects_empty_inventory():
    chooser = PlanChooser(CostModel(DeviceProfile()))
    with pytest.raises(ExperimentError):
        chooser.choose({}, Estimate({}))


# ---------------------------------------------------------------------------
# the estimation-error scenario
# ---------------------------------------------------------------------------


def _scenario(system) -> EstimationErrorScenario:
    return EstimationErrorScenario(
        [system],
        Space1D.log2("selectivity", -4),
        magnitudes=(0.0, 1.0, 2.0),
    )


def test_estimation_scenario_axes_and_cells(system_a):
    scenario = _scenario(system_a)
    assert scenario.grid_shape == (5, 3)
    assert [axis.name for axis in scenario.axes] == [
        "selectivity",
        "error_magnitude",
    ]
    cell = scenario.cell((1, 2))
    assert cell.expected_rows == scenario.true_cards((1, 2))["rows.out"]


def test_estimation_scenario_estimates_contract(system_a):
    scenario = _scenario(system_a)
    # Magnitude 0: estimates are exact.
    zero = scenario.estimates((2, 0))
    assert zero.values == scenario.true_cards((2, 0))
    assert scenario.estimates((2, 1)).uncertainty == pytest.approx(math.e)
    # The magnitude axis amplifies one fixed draw per selectivity cell
    # (pure log-scaling is unit-tested on EstimationError; here the
    # full-selectivity cap may truncate an overestimate, consistently
    # across the paired rows and sel keys).
    column = scenario.column
    rows_key, sel_key = f"rows.{column}", f"sel.{column}"
    for i in range(scenario.grid_shape[0]):
        truth = scenario.true_cards((i, 0))
        one = scenario.estimates((i, 1)).values
        two = scenario.estimates((i, 2)).values
        ratio_one = one[rows_key] / truth[rows_key]
        ratio_two = two[rows_key] / truth[rows_key]
        if ratio_one >= 1.0:
            assert ratio_two >= ratio_one  # amplified (or already capped)
        else:
            assert math.log(ratio_two) == pytest.approx(
                2 * math.log(ratio_one)
            )
        for est in (one, two):
            assert est[sel_key] <= 1.0
            assert est[rows_key] / truth[rows_key] == pytest.approx(
                est[sel_key] / truth[sel_key]
            )


def test_estimation_scenario_spec_round_trip(system_a):
    scenario = _scenario(system_a)
    spec = scenario.spec()
    rebuilt = EstimationErrorScenario.from_spec(spec, [system_a])
    assert rebuilt.grid_shape == scenario.grid_shape
    assert rebuilt.estimates((1, 2)).values == scenario.estimates((1, 2)).values


def test_estimation_scenario_serial_parallel_identical(system_a):
    scenario = _scenario(system_a)
    serial = scenario.run(memory_bytes=1 << 20)
    engine = ParallelSweep(
        build_system_a, memory_bytes=1 << 20, n_workers=2
    )
    parallel = engine.sweep(scenario.spec())
    assert serial.plan_ids == parallel.plan_ids
    assert np.array_equal(serial.times, parallel.times, equal_nan=True)
    assert np.array_equal(serial.aborted, parallel.aborted)
    assert np.array_equal(serial.rows, parallel.rows)
    assert serial.meta == parallel.meta


def test_estimation_scenario_measurements_independent_of_error_axis(system_a):
    mapdata = _scenario(system_a).run(memory_bytes=1 << 20)
    # Measured times must be constant along the error axis: estimation
    # error perturbs the optimizer's inputs, never the executions.
    for j in range(1, mapdata.grid_shape[1]):
        assert np.array_equal(
            mapdata.times[:, :, j], mapdata.times[:, :, 0], equal_nan=True
        )
