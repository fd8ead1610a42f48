"""repro — robustness maps for query execution.

A full reproduction of Graefe, Kuno & Wiener, *Visualizing the robustness
of query execution* (CIDR 2009): a simulated-time database engine
(storage, buffer pool, B+-trees, vectorized executor with forced plans),
three system configurations matching the paper's Systems A/B/C, the
robustness-map analysis toolkit (absolute/relative/optimality maps,
landmarks, metrics, regression guards), and pure-Python renderers
(SVG/PNG/ASCII) for every figure in the paper.

Quickstart::

    from repro import SinglePredicateScenario, Space1D, SystemA, SystemConfig
    from repro.viz import absolute_curves

    system = SystemA(SystemConfig())
    scenario = SinglePredicateScenario([system], Space1D.log2("sel", -10))
    mapdata = scenario.run(budget_seconds=30.0)
    absolute_curves(mapdata, "my first robustness map", path="map.svg")
"""

import os

# numpy's OpenBLAS starts a thread pool when numpy is imported, which
# made the import about 45 ms slower in CPU and wall time on a 2-core
# box.  No repro code calls BLAS, so one thread is all it needs; a value
# the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.errors import (  # noqa: E402 - after the environment is set
    ReproError,
    StorageError,
    ExecutionError,
    PlanError,
    WorkloadError,
    ExperimentError,
    VisualizationError,
)
from repro.sim import DeviceProfile, SimClock
from repro.storage import StorageEnv, Table, BPlusTree, RowIdBitmap
from repro.executor import (
    ColumnRange,
    PlanRunner,
    ExecContext,
    NAIVE_FETCH,
    SORTED_BITMAP_FETCH,
    ADAPTIVE_PREFETCH,
)
from repro.workloads import (
    LineitemConfig,
    build_lineitem,
    PredicateBuilder,
    SinglePredicateQuery,
    TwoPredicateQuery,
)
from repro.systems import (
    SystemConfig,
    SystemA,
    SystemB,
    SystemC,
    build_three_systems,
)
from repro.optimizer import (
    CardinalityEstimator,
    CostModel,
    Estimate,
    EstimationError,
    MinEstimatedCost,
    MinWorstRegret,
    PenaltyAware,
    PlanChooser,
)
from repro.core import (
    Space1D,
    Space2D,
    MapAxis,
    MapData,
    Scenario,
    ScenarioSpec,
    SinglePredicateScenario,
    TwoPredicateScenario,
    SortSpillScenario,
    MemorySweepScenario,
    JoinScenario,
    EstimationErrorScenario,
    ChoiceMap,
    build_choice_map,
    OperatorBench,
    RobustnessSweep,
    Jitter,
    ParallelSweep,
    CellPolicy,
    DenseGridPolicy,
    AdaptiveRefinePolicy,
    SweepDriver,
    ProgressEvent,
    best_times,
    relative_to_best,
    quotient_for,
    optimal_mask,
    optimal_counts,
    region_stats,
    summarize_plans,
    profile_plan,
    compare_maps,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "StorageError",
    "ExecutionError",
    "PlanError",
    "WorkloadError",
    "ExperimentError",
    "VisualizationError",
    "DeviceProfile",
    "SimClock",
    "StorageEnv",
    "Table",
    "BPlusTree",
    "RowIdBitmap",
    "ColumnRange",
    "PlanRunner",
    "ExecContext",
    "NAIVE_FETCH",
    "SORTED_BITMAP_FETCH",
    "ADAPTIVE_PREFETCH",
    "LineitemConfig",
    "build_lineitem",
    "PredicateBuilder",
    "SinglePredicateQuery",
    "TwoPredicateQuery",
    "SystemConfig",
    "SystemA",
    "SystemB",
    "SystemC",
    "build_three_systems",
    "Space1D",
    "Space2D",
    "MapAxis",
    "MapData",
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
    "OperatorBench",
    "CardinalityEstimator",
    "CostModel",
    "Estimate",
    "EstimationError",
    "MinEstimatedCost",
    "MinWorstRegret",
    "PenaltyAware",
    "PlanChooser",
    "RobustnessSweep",
    "Jitter",
    "ParallelSweep",
    "CellPolicy",
    "DenseGridPolicy",
    "AdaptiveRefinePolicy",
    "SweepDriver",
    "ProgressEvent",
    "best_times",
    "relative_to_best",
    "quotient_for",
    "optimal_mask",
    "optimal_counts",
    "region_stats",
    "summarize_plans",
    "profile_plan",
    "compare_maps",
    "__version__",
]
