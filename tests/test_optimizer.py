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
    CostQuirks,
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
from repro.systems import SystemA, SystemB, SystemC, SystemConfig
from repro.workloads import JoinQuery, LineitemConfig
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


def test_quirks_scale_charge_categories():
    base = CostModel(DeviceProfile())
    doubled = CostModel(DeviceProfile(), quirks=CostQuirks(random_io=2.0))
    assert doubled.random_reads(10) == pytest.approx(2 * base.random_reads(10))
    assert doubled.sequential_read(10) == pytest.approx(
        base.sequential_read(10)
    )
    cheap_cpu = CostModel(DeviceProfile(), quirks=CostQuirks(cpu=0.5))
    assert cheap_cpu.sort_cpu(1000) == pytest.approx(0.5 * base.sort_cpu(1000))


def test_external_sort_cost_spill_policies():
    model = CostModel(DeviceProfile(), memory_bytes=1 << 10)
    in_memory = model.external_sort_cost(8, 8)
    graceful = model.external_sort_cost(1 << 12, 8)
    all_or_nothing = model.external_sort_cost(1 << 12, 8, all_or_nothing=True)
    assert in_memory < graceful < all_or_nothing


def test_distinct_pages_yao_bounds():
    model = CostModel(DeviceProfile())
    assert model.distinct_pages(100, 0) == 0.0
    assert model.distinct_pages(100, 1) == pytest.approx(1.0)
    assert model.distinct_pages(100, 10**9) == 100.0
    assert 0 < model.distinct_pages(100, 50) < 50


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


def test_join_inventory_all_priced():
    model = CostModel(DeviceProfile(), memory_bytes=64 << 10)
    keys = np.arange(512, dtype=np.int64)
    est = {"rows.build": 512.0, "rows.probe": 512.0, "rows.out": 512.0}
    for plan in join_plan_inventory(keys, keys).values():
        assert model.cost(plan, est) > 0


def test_vendor_quirks_can_flip_the_choice(system_a):
    """Beliefs move boundaries: vendors disagree on identical estimates."""
    builder = PredicateBuilder(system_a.table, system_a.config.b_column)
    predicate, _ach = builder.range_for_selectivity(2.0**-7)
    query = SinglePredicateQuery(predicate)
    plans = system_a.plans_for(query)
    est = Estimate(system_a.true_cards(query))
    neutral = PlanChooser(CostModel(system_a.config.profile))
    # This vendor believes streamed I/O is ruinously slow, so the (tiny)
    # table's scan loses to an index plan it would otherwise dominate.
    scan_hater = PlanChooser(
        CostModel(
            system_a.config.profile, quirks=CostQuirks(sequential_io=500.0)
        )
    )
    neutral_choice = neutral.choose(plans, est)
    flipped_choice = scan_hater.choose(plans, est)
    assert neutral_choice == "A.table_scan"
    assert flipped_choice != neutral_choice


def test_three_vendors_have_distinct_quirks():
    quirks = {
        SystemA.cost_quirks,
        SystemB.cost_quirks,
        SystemC.cost_quirks,
    }
    assert len(quirks) == 3


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
# DatabaseSystem.choose_plan
# ---------------------------------------------------------------------------


def test_choose_plan_single_predicate(system_a):
    builder = PredicateBuilder(system_a.table, system_a.config.b_column)
    predicate, _ach = builder.range_for_selectivity(2.0**-6)
    query = SinglePredicateQuery(predicate)
    plan_id, plan = system_a.choose_plan(query)
    assert plan_id in system_a.plans_for(query)
    assert plan.estimated_cost(
        system_a.cost_model(), system_a.true_cards(query)
    ) > 0


def test_choose_plan_all_systems_two_predicate():
    for system_type in (SystemA, SystemB, SystemC):
        system = system_type(CONFIG)
        builder_a = PredicateBuilder(system.table, system.config.a_column)
        builder_b = PredicateBuilder(system.table, system.config.b_column)
        query = TwoPredicateQuery(
            builder_a.range_for_selectivity(0.1)[0],
            builder_b.range_for_selectivity(0.1)[0],
        )
        plan_id, _plan = system.choose_plan(query)
        assert plan_id in system.plans_for(query)


def test_choose_plan_join(system_a):
    keys = np.arange(256, dtype=np.int64)
    query = JoinQuery(keys, keys)
    # The classic policy, then the two that price every plan at every
    # sample of an uncertainty box.
    for policy in (
        None, MinWorstRegret(uncertainty=4.0), PenaltyAware(uncertainty=4.0)
    ):
        plan_id, _plan = system_a.choose_plan(
            query, policy=policy, memory_bytes=64 << 10
        )
        assert plan_id in system_a.plans_for(query)


def test_choose_plan_robust_policy(system_a):
    builder = PredicateBuilder(system_a.table, system_a.config.b_column)
    query = SinglePredicateQuery(builder.range_for_selectivity(0.25)[0])
    plan_id, _plan = system_a.choose_plan(
        query, policy=MinWorstRegret(uncertainty=8.0)
    )
    assert plan_id in system_a.plans_for(query)


# ---------------------------------------------------------------------------
# the estimation-error scenario
# ---------------------------------------------------------------------------


def _scenario(system) -> EstimationErrorScenario:
    return EstimationErrorScenario(
        [system],
        Space1D.log2("selectivity", -4, 0),
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
