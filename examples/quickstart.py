"""Quickstart: draw your first robustness map in ~30 lines.

Reproduces the paper's Figure 1 in miniature: a table scan, a traditional
index scan, and an improved index scan measured across a selectivity
sweep, printed as an ASCII log-log chart and written as SVG.

Run:  python examples/quickstart.py
Env:  REPRO_EXAMPLE_ROWS (default 32768) scales the table.
"""

import os

from repro import LineitemConfig, SinglePredicateScenario, Space1D, SystemConfig
from repro.executor import TableScanNode
from repro.systems import SystemA
from repro.viz import absolute_curves, curve_ascii

N_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 32768))


def main() -> None:
    # 1. Build System A (single-column indexes, improved index scan).
    system = SystemA(SystemConfig(lineitem=LineitemConfig(n_rows=N_ROWS)))

    # 2. Sweep one predicate's selectivity from 2^-10 to 1 (x2 steps),
    #    censoring plans that exceed 30x the table-scan cost.
    scan_cost = system.runner().measure(TableScanNode(system.table, [])).seconds
    scenario = SinglePredicateScenario(
        [system], Space1D.log2("selectivity", -10)
    )
    mapdata = scenario.run(budget_seconds=30 * scan_cost)

    # 3. Look at the map.
    trio = ["A.table_scan", "A.idx_traditional", "A.idx_improved"]
    print(curve_ascii(mapdata.x_achieved, {p: mapdata.times_for(p) for p in trio}))
    absolute_curves(mapdata, "Figure 1 (quickstart)", trio, path="quickstart_fig1.svg")
    print("\nwrote quickstart_fig1.svg")

    # 4. The paper's headline observations, straight from the data.
    scan = mapdata.times_for("A.table_scan")
    improved = mapdata.times_for("A.idx_improved")
    print(f"table scan is flat: {scan.min():.4f}s .. {scan.max():.4f}s")
    print(
        f"improved index scan at full selectivity: "
        f"{improved[-1] / scan[-1]:.2f}x the table scan (paper: ~2.5x)"
    )


if __name__ == "__main__":
    main()
