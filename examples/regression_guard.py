"""Map-based regression testing (the paper's §1/§4 use case).

Scenario: a refactor accidentally replaces the improved index scan's
fetch strategy with the naive per-row fetch.  A plain correctness suite
stays green — the plan returns identical rows.  The robustness-map diff
catches it immediately, because the *shape* of the cost curve changed.

Run:  python examples/regression_guard.py
Env:  REPRO_EXAMPLE_ROWS (default 16384).
"""

import os

import numpy as np

from repro import (
    ColumnRange,
    LineitemConfig,
    MapAxis,
    MapData,
    PredicateBuilder,
    SystemConfig,
    compare_maps,
)
from repro.core.parameter_space import Space1D
from repro.executor import ADAPTIVE_PREFETCH, NAIVE_FETCH, FetchNode, IndexRangeRidsNode
from repro.systems import SystemA

N_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 16384))


def measure_build(system: SystemA, space: Space1D, strategy) -> MapData:
    """Measure the 'improved index scan' under a given fetch strategy."""
    builder = PredicateBuilder(system.table, system.config.b_column)
    times = np.zeros(space.n_points)
    aborted = np.zeros(space.n_points, dtype=bool)
    achieved = np.zeros(space.n_points)
    for i, target in enumerate(space.targets):
        predicate, achieved[i] = builder.range_for_selectivity(float(target))
        plan = FetchNode(
            IndexRangeRidsNode(system.idx_b, predicate),
            system.table,
            strategy,
            project=[system.config.project_column],
        )
        run = system.runner(budget_seconds=30.0).measure(plan)
        times[i] = np.nan if run.aborted else run.seconds
        aborted[i] = run.aborted
    return MapData(
        plan_ids=["A.idx_improved"],
        times=times[None, :],
        aborted=aborted[None, :],
        rows=np.zeros(space.n_points, dtype=np.int64),
        axes=[MapAxis("selectivity", space.targets, achieved)],
    )


def main() -> None:
    system = SystemA(SystemConfig(lineitem=LineitemConfig(n_rows=N_ROWS)))
    space = Space1D.log2("selectivity", -9)

    nightly_baseline = measure_build(system, space, ADAPTIVE_PREFETCH)
    after_bad_refactor = measure_build(system, space, NAIVE_FETCH)

    report = compare_maps(nightly_baseline, after_bad_refactor, threshold=1.5)
    print(report.summary())
    for finding in report.findings[:8]:
        selectivity = nightly_baseline.x_achieved[finding.cell[0]]
        print(f"  sel={selectivity:.2e}: {finding}")
    if len(report.findings) > 8:
        print(f"  ... and {len(report.findings) - 8} more cells")

    # A correctness-only gate would have passed: same rows either way.
    print(
        "\nnote: both builds return identical rows — only the robustness map "
        "sees the regression."
    )
    assert not report.passed, "the guard must flag this regression"


if __name__ == "__main__":
    main()
