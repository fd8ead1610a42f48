"""Memory-dimension robustness maps (the paper's §4 future work).

"We expect that some implementations of sorting spill their entire input
to disk if the input size exceeds the memory size by merely a single
record.  Those sort implementations lacking graceful degradation will
show discontinuous execution costs."

Both §4 dimensions now run through the engine proper — no hand-rolled
measurement loops:

* :class:`SortSpillScenario` sweeps input rows x memory budget with the
  two spill policies as forced "plans", and the discontinuity detector
  confirms the all-or-nothing cliff on the fixed-memory slice.
* :class:`MemorySweepScenario` sweeps selectivity x per-cell workspace
  memory over System A's single-predicate plans, showing which plans
  degrade gracefully when their hash/sort workspaces shrink.

Run:  python examples/memory_robustness.py
"""

import os

import numpy as np

from repro import MemorySweepScenario, SortSpillScenario, Space1D, SystemA, SystemConfig
from repro.core.landmarks import discontinuities
from repro.core.scenario import OperatorBench
from repro.viz import ABSOLUTE_TIME_SCALE, curve_ascii, heatmap_ascii
from repro.viz.svg import curves_svg
from repro.workloads import LineitemConfig

ROW_BYTES = 128
MEMORY_BYTES = int(os.environ.get("REPRO_EXAMPLE_SORT_MEMORY", 2 << 20))
TABLE_ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", 8192))
MIN_EXP = int(os.environ.get("REPRO_EXAMPLE_MIN_EXP", -6))


def main() -> None:
    memory_rows = MEMORY_BYTES // ROW_BYTES

    # --- sort cost vs (input size x memory) around the memory boundary ---
    fractions = np.asarray([0.6, 0.75, 0.9, 0.97, 1.0, 1.03, 1.1, 1.25, 1.5, 2.0])
    sizes = sorted({int(f * memory_rows) for f in fractions})
    memories = [MEMORY_BYTES // 2, MEMORY_BYTES, MEMORY_BYTES * 2]
    scenario = SortSpillScenario(
        OperatorBench(), sizes, memories, row_bytes=ROW_BYTES
    )
    mapdata = scenario.run()
    print(f"sort workspace axis: {[m >> 20 for m in memories]} MiB")

    # Fixed-memory slice (the paper's 1-D picture of the cliff).
    mem_index = memories.index(MEMORY_BYTES)
    xs = mapdata.axis("input_rows").targets
    curves = {
        plan_id: mapdata.times_for(plan_id)[:, mem_index]
        for plan_id in mapdata.plan_ids
    }
    print(f"\nslice at {MEMORY_BYTES >> 20} MiB = {memory_rows} rows:\n")
    print(curve_ascii(xs, curves))
    for label, ys in curves.items():
        jumps = discontinuities(xs, ys, jump_factor=1.5)
        verdict = "; ".join(str(j) for j in jumps) if jumps else "smooth"
        print(f"  {label:22s}: {verdict}")
    with open("sort_spill_map.svg", "w") as f:
        f.write(
            curves_svg(
                xs,
                curves,
                title="Sort robustness: input size vs fixed memory",
                x_label="input rows",
            )
        )
    print("wrote sort_spill_map.svg")

    # Full 2-D map for the non-graceful policy: the cliff moves with memory.
    print("\nall-or-nothing cost map (rows: input up; cols: memory right):")
    print(
        heatmap_ascii(
            mapdata.times_for("sort.all-or-nothing"), ABSOLUTE_TIME_SCALE
        )
    )

    # --- selectivity x memory over System A's single-predicate plans -----
    system = SystemA(SystemConfig(lineitem=LineitemConfig(n_rows=TABLE_ROWS)))
    memory_axis = [4 << 10, 64 << 10, 1 << 20]
    sweep_map = MemorySweepScenario(
        [system], Space1D.log2("selectivity", MIN_EXP), memory_axis
    ).run()
    print(
        f"\nmemory sweep: {TABLE_ROWS} rows, "
        f"memory axis {[m >> 10 for m in memory_axis]} KiB"
    )
    starved, roomy = sweep_map.times[:, :, 0], sweep_map.times[:, :, -1]
    for p, plan_id in enumerate(sweep_map.plan_ids):
        factor = np.nanmax(starved[p] / roomy[p])
        verdict = "memory-sensitive" if factor > 1.01 else "flat"
        print(f"  {plan_id:24s} starvation cost factor {factor:6.2f}x  {verdict}")


if __name__ == "__main__":
    main()
