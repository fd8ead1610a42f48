"""Optimizer regret maps: plan choice under estimation error.

The paper's premise is that "actual run-time conditions (e.g., actual
selectivities ...) very often differ from compile-time estimates".  This
example builds the compile-time side: System A's cost model prices every
single-predicate plan from estimates perturbed by a deterministic
q-error, a classic policy (min estimated cost) and a robust policy (min
worst regret over the uncertainty box) each pick a plan per cell, and
the measured map turns those choices into regret — chosen plan time over
measured-best time.

Run:  python examples/optimizer_regret.py
"""

import os

import numpy as np

from repro import (
    EstimationErrorScenario,
    LineitemConfig,
    MinEstimatedCost,
    MinWorstRegret,
    PlanChooser,
    Space1D,
    SystemA,
    SystemConfig,
    build_choice_map,
)
from repro.viz.figures import choice_heatmap, plan_choice_scale, regret_heatmap

N_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 1 << 16))
MIN_EXP = int(os.environ.get("REPRO_EXAMPLE_MIN_EXP", -10))
MAGNITUDES = (0.0, 0.5, 1.0, 2.0, 3.0)
MEMORY_BYTES = 4 << 20


def main() -> None:
    system = SystemA(
        SystemConfig(lineitem=LineitemConfig(n_rows=N_ROWS, seed=42))
    )
    scenario = EstimationErrorScenario(
        [system],
        Space1D.log2("selectivity", MIN_EXP),
        magnitudes=MAGNITUDES,
    )
    print(
        f"measuring {scenario.n_cells} cells "
        f"({scenario.grid_shape[0]} selectivities x "
        f"{scenario.grid_shape[1]} error magnitudes, {N_ROWS} rows)..."
    )
    mapdata = scenario.run(budget_seconds=60.0, memory_bytes=MEMORY_BYTES)

    model = system.cost_model(memory_bytes=MEMORY_BYTES)
    maps = {}
    for policy in (MinEstimatedCost(), MinWorstRegret()):
        chooser = PlanChooser(model, policy)
        maps[policy.name] = build_choice_map(
            mapdata,
            policy.name,
            lambda idx: chooser.choose(
                scenario.candidate_plans(idx), scenario.estimates(idx)
            ),
        )

    print("\nworst regret by error magnitude (chosen time / best time):")
    print("  policy               " + "".join(f"  err={m:<5.2g}" for m in MAGNITUDES))
    for name, choice in maps.items():
        per = [
            choice.worst_regret(np.s_[:, j]) for j in range(len(MAGNITUDES))
        ]
        print(f"  {name:20s}" + "".join(f"  {r:8.2f}" for r in per))

    classic = maps["min-estimated-cost"]
    shifted = int(
        np.count_nonzero(classic.choices[:, 0] != classic.choices[:, -1])
    )
    print(
        f"\nclassic choice boundaries: {shifted} of "
        f"{classic.grid_shape[0]} selectivity cells pick a different plan "
        f"at error {MAGNITUDES[-1]:g} than at 0"
    )

    # Side-by-side panels share one categorical scale, so the same plan
    # is the same color in every panel.
    scale = plan_choice_scale(classic.plan_ids)
    for name, choice in maps.items():
        safe = name.replace("-", "_")
        choice_path = f"optimizer_choice_{safe}.svg"
        choice_heatmap(
            choice, f"Plan choice: {name}", scale=scale, path=choice_path
        )
        regret_path = f"optimizer_regret_{safe}.svg"
        regret_heatmap(choice, f"Regret: {name}", path=regret_path)
        print(f"wrote {choice_path} and {regret_path}")


if __name__ == "__main__":
    main()
