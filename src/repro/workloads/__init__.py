"""Workload substrate: data generation and selectivity-targeted queries.

The paper measures plans on TPC-H ``lineitem`` (~60M rows) while sweeping
predicate selectivities over log-spaced grids.  This package generates a
scaled lineitem-like table deterministically and translates target
selectivities into integer range predicates with exact achieved fractions.
"""

from repro.workloads.generators import sequential_column, uniform_column
from repro.workloads.lineitem import LineitemConfig, build_lineitem
from repro.workloads.selectivity import PredicateBuilder
from repro.workloads.queries import SinglePredicateQuery, TwoPredicateQuery

__all__ = [
    "uniform_column",
    "sequential_column",
    "LineitemConfig",
    "build_lineitem",
    "PredicateBuilder",
    "SinglePredicateQuery",
    "TwoPredicateQuery",
]
