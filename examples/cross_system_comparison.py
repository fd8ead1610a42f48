"""Compare Systems A, B, C the way the paper's §3.3 suggests.

For each system: its most robust plan, the plan with the broadest region
of acceptable performance (within 20% of the global best), and the
greedy minimal plan set that keeps every point within a factor of 2 —
the paper's "plan elimination" thought experiment.

Run:  python examples/cross_system_comparison.py
Env:  REPRO_EXAMPLE_ROWS (default 16384).
"""

import os

import numpy as np

from repro import (
    LineitemConfig,
    Space2D,
    SystemConfig,
    TwoPredicateScenario,
    build_three_systems,
    optimal_mask,
    region_stats,
    relative_to_best,
    summarize_plans,
)

N_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 16384))


def main() -> None:
    systems = build_three_systems(
        SystemConfig(lineitem=LineitemConfig(n_rows=N_ROWS))
    )
    for system in systems.values():
        print(f"System {system.name}: {system.description}")
    scenario = TwoPredicateScenario(
        list(systems.values()), Space2D.log2("sel_a", "sel_b", -7)
    )
    mapdata = scenario.run(budget_seconds=10.0)
    print(f"\nmeasured {mapdata.n_plans} plans x {mapdata.rows.size} cells\n")

    # Most robust plan per system (smallest worst-case factor of best).
    profiles = summarize_plans(mapdata)
    for name in ("A", "B", "C"):
        best = next(p for p in profiles if p.plan_id.startswith(f"{name}."))
        print(f"most robust in {name}: {best.describe()}")

    # Region of acceptable performance (within 20% of global best).
    print("\nacceptable-region (within 20%) shape per plan:")
    mask = optimal_mask(mapdata, tol_rel=0.2)
    for i, plan_id in enumerate(mapdata.plan_ids):
        stats = region_stats(mask[i])
        if stats.n_cells:
            note = "contiguous" if stats.contiguous else f"{stats.n_components} parts"
            print(
                f"  {plan_id:16s} {stats.area_fraction:5.0%} of space ({note})"
            )

    # Plan elimination: smallest set covering all cells within 2x.
    quotients = relative_to_best(mapdata)
    acceptable = quotients <= 2.0
    covered = np.zeros(mapdata.grid_shape, dtype=bool)
    chosen = []
    while not covered.all():
        gains = [np.count_nonzero(acceptable[i] & ~covered) for i in range(mapdata.n_plans)]
        best_i = int(np.argmax(gains))
        if gains[best_i] == 0:
            break
        chosen.append(mapdata.plan_ids[best_i])
        covered |= acceptable[best_i]
    print(
        f"\nplan elimination: {len(chosen)} plan(s) keep every point within 2x "
        f"of optimal -> {chosen}"
    )
    print(
        "every other plan could be dropped from the optimizer's search space"
        " (paper §3.4)."
    )


if __name__ == "__main__":
    main()
