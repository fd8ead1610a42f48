"""Vectorized query execution engine.

The executor runs *forced* plans (the paper's methodology: "we eliminate
choices in query optimization using hints") against real data, charging
virtual time for every page touched and every row processed.  Plans are
trees of physical operators: scans, fetch strategies, rid combiners, MDAM
access, and external sort.

Measured plan cost = virtual clock delta around :meth:`PlanRunner.measure`.
"""

from repro.executor.batching import batched_enabled, set_batched, use_batched
from repro.executor.context import CostBudgetExceeded, ExecContext
from repro.executor.memory import MemoryBroker, MemoryGrant
from repro.executor.results import Result
from repro.executor.predicates import ColumnRange
from repro.executor.fetch import FetchStrategy, NAIVE_FETCH, SORTED_BITMAP_FETCH, ADAPTIVE_PREFETCH
from repro.executor.plans import (
    PlanNode,
    TableScanNode,
    IndexRangeRidsNode,
    CompositeRangeRidsNode,
    FetchNode,
    RidIntersectNode,
    CoveringCompositeScanNode,
    CoveringRidJoinNode,
    ExternalSortNode,
    PlanRunner,
    MeasuredRun,
)
from repro.executor.sort import ExternalSort, SortResult, SpillPolicy
from repro.executor.joins import (
    JOIN_PLAN_IDS,
    HashJoinNode,
    IndexNestedLoopJoinNode,
    MergeJoinNode,
    join_matches,
    join_plan_inventory,
)

__all__ = [
    "batched_enabled",
    "set_batched",
    "use_batched",
    "CostBudgetExceeded",
    "ExecContext",
    "MemoryBroker",
    "MemoryGrant",
    "Result",
    "ColumnRange",
    "FetchStrategy",
    "NAIVE_FETCH",
    "SORTED_BITMAP_FETCH",
    "ADAPTIVE_PREFETCH",
    "PlanNode",
    "TableScanNode",
    "IndexRangeRidsNode",
    "CompositeRangeRidsNode",
    "FetchNode",
    "RidIntersectNode",
    "CoveringCompositeScanNode",
    "ExternalSortNode",
    "CoveringRidJoinNode",
    "PlanRunner",
    "MeasuredRun",
    "ExternalSort",
    "SortResult",
    "SpillPolicy",
    "JOIN_PLAN_IDS",
    "MergeJoinNode",
    "HashJoinNode",
    "IndexNestedLoopJoinNode",
    "join_matches",
    "join_plan_inventory",
]
