"""The paper's full two-predicate study (Figures 4-10) on systems A/B/C.

Builds all three systems over identical data, sweeps both predicate
selectivities on a log grid, and renders:

* absolute heat maps for the single-index plan (Fig 4) and the two-index
  merge join (Fig 5),
* relative (factor-of-best) maps for Figs 7, 8, 9,
* the Fig 10 optimal-plan-count map,

as SVG + PNG files in ``two_predicate_out/``, plus ASCII previews and the
per-plan robustness ranking on stdout.

Run:  python examples/two_predicate_study.py
Env:  REPRO_EXAMPLE_ROWS (default 32768), REPRO_EXAMPLE_MIN_EXP (default -8),
      REPRO_EXAMPLE_WORKERS (default 0: serial; parallel is bit-identical).
"""

import os
from pathlib import Path

import numpy as np

from repro import (
    ParallelSweep,
    Space2D,
    SystemConfig,
    LineitemConfig,
    TwoPredicateScenario,
    build_three_systems,
    optimal_counts,
    quotient_for,
    summarize_plans,
)
from repro.core.runner import Jitter
from repro.viz import (
    ABSOLUTE_TIME_SCALE,
    RELATIVE_FACTOR_SCALE,
    absolute_heatmap,
    counts_heatmap,
    heatmap_ascii,
    legend_ascii,
    relative_heatmap,
    save_heatmap_png,
)

N_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 32768))
MIN_EXP = int(os.environ.get("REPRO_EXAMPLE_MIN_EXP", -8))
N_WORKERS = int(os.environ.get("REPRO_EXAMPLE_WORKERS", 0))
OUT = Path("two_predicate_out")


def build_systems():
    """The provider factory: called once; pool workers inherit the systems."""
    return list(
        build_three_systems(
            SystemConfig(lineitem=LineitemConfig(n_rows=N_ROWS))
        ).values()
    )


def progress(event) -> None:
    """Render each tick with cells/sec taken from the event itself.

    ``event.done``/``event.elapsed`` come from the sweep engine's own
    stopwatch, so the printed throughput cannot drift from the engine's
    ETA the way a locally recomputed elapsed time could.
    """
    rate = event.cells_per_sec
    print(f"  {event}" + (f" [{rate:,.0f} cells/s]" if rate is not None else ""))


def main() -> None:
    sweep = ParallelSweep(
        build_systems,
        budget_seconds=5.0,
        jitter=Jitter(rel=0.01, abs=0.0005),
        n_workers=N_WORKERS,
        progress=progress,
    )
    space = Space2D.log2("sel_a", "sel_b", MIN_EXP)
    mapdata = sweep.sweep(TwoPredicateScenario.build_spec(space.x, space.y))
    OUT.mkdir(exist_ok=True)

    # Fig 4 / Fig 5: absolute maps.
    absolute_heatmap(mapdata, "A.idx_a_fetch", "Fig 4", path=OUT / "fig4.svg")
    absolute_heatmap(mapdata, "A.merge_ab", "Fig 5", path=OUT / "fig5.svg")
    save_heatmap_png(
        mapdata.times_for("A.merge_ab"), ABSOLUTE_TIME_SCALE, OUT / "fig5.png"
    )

    # Fig 7/8/9: relative maps.
    a_plans = [p for p in mapdata.plan_ids if p.startswith("A.")]
    relative_heatmap(
        mapdata, "A.idx_a_fetch", "Fig 7", baseline_ids=a_plans, path=OUT / "fig7.svg"
    )
    relative_heatmap(mapdata, "B.ab_bitmap", "Fig 8", path=OUT / "fig8.svg")
    relative_heatmap(mapdata, "C.ab_mdam", "Fig 9", path=OUT / "fig9.svg")

    # Fig 10: optimal plan multiplicity.
    counts = optimal_counts(mapdata, tol_abs=0.1)
    counts_heatmap(counts, mapdata, "Fig 10", path=OUT / "fig10.svg")

    print("ASCII preview of Fig 9 (C.ab_mdam, factor of best):")
    quotient = quotient_for(mapdata, "C.ab_mdam")
    grid = np.where(np.isinf(quotient), np.nan, quotient)
    print(heatmap_ascii(grid, RELATIVE_FACTOR_SCALE))
    print(legend_ascii(RELATIVE_FACTOR_SCALE))

    print("\nRobustness ranking (worst-case factor of best, all 15 plans):")
    for profile in summarize_plans(mapdata):
        print(" ", profile.describe())
    print(f"\nwrote {len(list(OUT.iterdir()))} artifacts to {OUT}/")


if __name__ == "__main__":
    main()
