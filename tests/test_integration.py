"""Cross-module integration tests, including the quotient-scaling law."""

import numpy as np
import pytest

from repro import (
    ColumnRange,
    LineitemConfig,
    RobustnessSweep,
    SinglePredicateScenario,
    Space2D,
    SystemConfig,
    TwoPredicateScenario,
    build_three_systems,
    quotient_for,
)
from tests.conftest import flattening_violations
from repro.viz import absolute_curves, relative_heatmap
from repro.core.parameter_space import Space1D
from repro.systems import SystemA


def small_systems(n_rows):
    return build_three_systems(
        SystemConfig(lineitem=LineitemConfig(n_rows=n_rows), pool_pages=64)
    )


def fig7_corner_quotient(n_rows: int) -> float:
    """Fig 7's adversarial corner at one table size: the single-index plan
    on a non-selective predicate vs. the plan indexing the selective one."""
    from repro.workloads import PredicateBuilder, TwoPredicateQuery

    system = SystemA(
        SystemConfig(lineitem=LineitemConfig(n_rows=n_rows), pool_pages=64)
    )
    builder_b = PredicateBuilder(system.table, "extendedprice")
    tiny_b, _ = builder_b.range_for_selectivity(2.0**-8)
    full_a = ColumnRange("partkey", 0, (1 << 31) - 1)
    plans = system.two_predicate_plans(TwoPredicateQuery(full_a, tiny_b))
    runner = system.runner()
    bad = runner.measure(plans["A.idx_a_fetch"]).seconds
    good = runner.measure(plans["A.idx_b_fetch"]).seconds
    return bad / good


def test_worst_quotient_grows_with_table_size():
    """The paper's 101,000x is a table-size effect: the Fig 7 plan's
    worst-case factor must grow as the table grows (toward 10^5 at the
    paper's 60M rows)."""
    small = fig7_corner_quotient(1 << 12)
    large = fig7_corner_quotient(1 << 16)
    assert large > small * 2


@pytest.mark.parametrize("n_rows", [1 << 12, 1 << 14, 1 << 15])
def test_improved_scan_degrades_gracefully(n_rows):
    """The paper's improved scan was 'not quite robust enough yet': flat
    growth followed by steeper growth (a flattening violation).  Our
    adaptive-prefetch implementation achieves the graceful degradation
    the paper hoped for, at every table size tried: cost is monotone and
    its marginal cost per unit of selectivity never increases
    materially."""
    system = SystemA(SystemConfig(lineitem=LineitemConfig(n_rows=n_rows)))
    sweep = RobustnessSweep([system])
    mapdata = sweep.sweep(
        SinglePredicateScenario([system], Space1D.log2("sel", -12))
    )
    improved = mapdata.times_for("A.idx_improved")
    from repro.core.landmarks import monotonicity_violations

    assert monotonicity_violations(mapdata.x_achieved, improved) == []
    # Marginal cost (per unit selectivity) must not grow by more than 2x
    # step-to-step once past the latency-dominated start.
    landmarks = flattening_violations(
        mapdata.x_achieved[4:], improved[4:], slope_growth_tol=2.0
    )
    assert landmarks == []


def test_end_to_end_sweep_render_roundtrip(tmp_path):
    """Sweep -> MapData -> JSON -> render, all in one pass."""
    systems = small_systems(1 << 11)
    sweep = RobustnessSweep(list(systems.values()), budget_seconds=5.0)
    mapdata = sweep.sweep(
        TwoPredicateScenario(sweep.systems, Space2D.log2("a", "b", -3))
    )
    path = tmp_path / "map.json"
    mapdata.save(path)
    from repro import MapData

    loaded = MapData.load(path)
    svg = relative_heatmap(loaded, "C.ab_mdam", "roundtrip", path=tmp_path / "m.svg")
    assert (tmp_path / "m.svg").read_text() == svg

    sweep1d = RobustnessSweep([systems["A"]])
    map1d = sweep1d.sweep(
        SinglePredicateScenario([systems["A"]], Space1D.log2("sel", -3))
    )
    absolute_curves(map1d, "roundtrip", path=tmp_path / "c.svg")
    assert (tmp_path / "c.svg").exists()


def test_oracle_agreement_enforced():
    """The sweep runner rejects a plan that returns wrong results."""
    from repro.core.runner import RobustnessSweep as Sweep
    from repro.errors import ExperimentError
    from repro.executor import PlanNode
    from repro.executor.results import Result

    systems = small_systems(1 << 10)
    system = systems["A"]

    class LyingPlan(PlanNode):
        label = "liar"

        def execute(self, ctx):
            return Result(np.array([0], dtype=np.int64), {})

    original = system.two_predicate_plans

    def plans_with_liar(query):
        plans = original(query)
        plans["A.liar"] = LyingPlan()
        return plans

    system.two_predicate_plans = plans_with_liar  # type: ignore[method-assign]
    sweep = Sweep([system])
    with pytest.raises(ExperimentError):
        sweep.sweep(
            TwoPredicateScenario([system], Space2D.log2("a", "b", -1))
        )


def test_mvcc_penalty_vs_covering():
    """System B pays for its MVCC fetches: its bitmap plan is strictly
    slower than System C's covering scan of the same index shape."""
    systems = small_systems(1 << 13)
    query_pred_a = ColumnRange("partkey", 0, 1 << 19)
    query_pred_b = ColumnRange("extendedprice", 0, 1 << 20)
    from repro.workloads import TwoPredicateQuery

    query = TwoPredicateQuery(query_pred_a, query_pred_b)
    b_run = systems["B"].runner().measure(
        systems["B"].two_predicate_plans(query)["B.ab_bitmap"]
    )
    c_run = systems["C"].runner().measure(
        systems["C"].two_predicate_plans(query)["C.ab_range"]
    )
    assert b_run.n_rows == c_run.n_rows
    assert b_run.seconds > c_run.seconds
