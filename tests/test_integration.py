"""Cross-module integration tests, including the quotient-scaling law."""

import os
import subprocess
import sys
from pathlib import Path

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
from repro.core.choice import build_choice_map
from repro.core.mapdata import MapAxis, MapData
from repro.core.metrics import profile_plan
from repro.core.optimality import optimal_mask
from repro.obs.logs import log_format, setup_logging
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.optimizer.chooser import MinWorstRegret, PenaltyAware
from repro.storage import Table
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


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads in /proc"
)
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_repro_holds_openblas_to_one_thread(preset):
    """``import repro`` leaves the process one thread (no idle OpenBLAS
    pool spinning), and a thread count the user set is left alone."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = (
        "import os, repro\n"
        "print(len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    threads, setting = out.stdout.split()
    if preset is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == preset


# ---------------------------------------------------------------------------
# options no front door turns are constants
# ---------------------------------------------------------------------------


def _two_plan_map():
    times = np.array([[1.0, 2.0], [2.0, 1.0]])
    return MapData(
        plan_ids=["p0", "p1"],
        times=times,
        aborted=np.zeros(times.shape, dtype=bool),
        rows=np.zeros(2, dtype=int),
        axes=[MapAxis("x", np.array([1.0, 2.0]))],
    )


@pytest.mark.parametrize(
    "call, keyword",
    [
        (lambda env, **kw: optimal_mask(_two_plan_map(), **kw), "plan_ids"),
        (lambda env, **kw: optimal_mask(_two_plan_map(), **kw), "baseline_ids"),
        (lambda env, **kw: profile_plan(_two_plan_map(), "p0", **kw), "baseline_ids"),
        (
            lambda env, **kw: build_choice_map(
                _two_plan_map(), "p", lambda idx: "p0", **kw
            ),
            "baseline_ids",
        ),
        (lambda env, **kw: MinWorstRegret(**kw), "uncertainty"),
        (lambda env, **kw: PenaltyAware(**kw), "uncertainty"),
        (lambda env, **kw: PenaltyAware(**kw), "penalty_weight"),
        (
            lambda env, **kw: Table(env, "t", {"a": np.arange(4)}).create_index(
                "i", ["a"], **kw
            ),
            "bits",
        ),
        (lambda env, **kw: Histogram("h", "H.", **kw), "buckets"),
        (lambda env, **kw: MetricsRegistry().histogram("h", "H.", **kw), "buckets"),
        (lambda env, **kw: log_format(**kw), "environ"),
        (lambda env, **kw: setup_logging(**kw), "stream"),
        (lambda env, **kw: setup_logging(**kw), "level"),
        (
            lambda env, **kw: SinglePredicateScenario(
                [SystemA(SystemConfig(lineitem=LineitemConfig(n_rows=256)))],
                Space1D.log2("sel", -1),
            ).run(**kw),
            "policy",
        ),
    ],
    ids=[
        "optimal_mask-plan_ids",
        "optimal_mask-baseline_ids",
        "profile_plan-baseline_ids",
        "build_choice_map-baseline_ids",
        "MinWorstRegret-uncertainty",
        "PenaltyAware-uncertainty",
        "PenaltyAware-penalty_weight",
        "create_index-bits",
        "Histogram-buckets",
        "histogram-buckets",
        "log_format-environ",
        "setup_logging-stream",
        "setup_logging-level",
        "Scenario.run-policy",
    ],
)
def test_removed_options_are_refused_not_swallowed(env, call, keyword):
    """The keywords only tests ever set are gone: each is a ``TypeError``,
    so no ``**kwargs`` takes it silently."""
    with pytest.raises(TypeError, match=rf"'{keyword}'|takes no arguments"):
        call(env, **{keyword: None})
