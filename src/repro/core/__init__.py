"""Robustness maps — the paper's primary contribution.

This package turns *measured* plan costs into the paper's four diagram
families and the quantitative machinery around them:

* :mod:`parameter_space` — log-spaced grids: one :class:`Space1D` per swept axis.
* :mod:`mapdata` — the measured cost cube (plan x N-D grid), serializable.
* :mod:`scenario` — pluggable sweep scenarios (selectivity, memory,
  data size, ...) behind one Scenario abstraction + registry.
* :mod:`driver` — wave-based sweep driver + cell policies (dense grid,
  adaptive coarse-to-fine refinement).
* :mod:`progress` — structured :class:`ProgressEvent` sweep reporting.
* :mod:`runner` — sweeps any scenario's forced plans under cold caches.
* :mod:`parallel` — chunked multi-process sweeps, bit-identical to serial.
* :mod:`maps` — absolute maps and performance relative to the best plan.
* :mod:`optimality` — tolerance-based optimal-plan sets and the size,
  shape, and contiguity of optimality regions (Figs 7-10).
* :mod:`landmarks` — monotonicity / discontinuity / crossover /
  symmetry detectors (§3.1's "landmarks").
* :mod:`metrics` — per-plan robustness profiles (worst-case quotient,
  area of acceptability, ...).
* :mod:`regression` — map-vs-map comparison for regression testing.
"""

from repro.core.parameter_space import Space1D, Space2D, log2_targets
from repro.core.mapdata import MapAxis, MapData
from repro.core.scenario import (
    Cell,
    EstimationErrorScenario,
    JoinScenario,
    MemorySweepScenario,
    OperatorBench,
    Scenario,
    ScenarioSpec,
    SinglePredicateScenario,
    SortSpillScenario,
    TwoPredicateScenario,
    build_scenario,
    operator_bench_factory,
    register_scenario,
    SCENARIO_TYPES,
)
from repro.core.choice import ChoiceMap, build_choice_map
from repro.core.driver import (
    AdaptiveRefinePolicy,
    CellPolicy,
    DenseGridPolicy,
    SweepDriver,
    SweepState,
    partition_cells,
)
from repro.core.progress import ProgressEvent
from repro.core.runner import RobustnessSweep, Jitter
from repro.core.parallel import ParallelSweep
from repro.core.maps import (
    best_times,
    censored_to_nan,
    lenient_best_times,
    quotient_for,
    relative_to_best,
)
from repro.core.optimality import (
    optimal_mask,
    optimal_counts,
    regions_of,
    region_stats,
    RegionStats,
)
from repro.core.landmarks import (
    Landmark,
    monotonicity_violations,
    discontinuities,
    crossovers,
    symmetry_score,
)
from repro.core.metrics import RobustnessProfile, profile_plan, summarize_plans
from repro.core.regression import RegressionReport, compare_maps

__all__ = [
    "Space1D",
    "Space2D",
    "log2_targets",
    "MapAxis",
    "MapData",
    "Cell",
    "Scenario",
    "ScenarioSpec",
    "SinglePredicateScenario",
    "TwoPredicateScenario",
    "SortSpillScenario",
    "MemorySweepScenario",
    "JoinScenario",
    "EstimationErrorScenario",
    "ChoiceMap",
    "build_choice_map",
    "lenient_best_times",
    "OperatorBench",
    "operator_bench_factory",
    "build_scenario",
    "register_scenario",
    "SCENARIO_TYPES",
    "RobustnessSweep",
    "Jitter",
    "ParallelSweep",
    "partition_cells",
    "CellPolicy",
    "DenseGridPolicy",
    "AdaptiveRefinePolicy",
    "SweepDriver",
    "SweepState",
    "ProgressEvent",
    "best_times",
    "relative_to_best",
    "quotient_for",
    "censored_to_nan",
    "optimal_mask",
    "optimal_counts",
    "regions_of",
    "region_stats",
    "RegionStats",
    "Landmark",
    "monotonicity_violations",
    "discontinuities",
    "crossovers",
    "symmetry_score",
    "RobustnessProfile",
    "profile_plan",
    "summarize_plans",
    "RegressionReport",
    "compare_maps",
]
