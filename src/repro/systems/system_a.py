"""System A: single-column non-clustered indexes only.

"The first system had only 7 plans for this simple two-predicate query":
a table scan, one single-index plan per predicate (fetching rows and
applying the other predicate afterwards — the Fig 4 plan), and four
two-index intersections ({merge, hash} x {both orders}).

For the single-predicate query of Figs 1-2, System A additionally exposes
the *traditional* index scan (naive per-row fetch), the *improved* index
scan (adaptive prefetch), and the multi-index covering plans that "join
non-clustered indexes such that the join result covers the query even if
no single non-clustered index does".
"""

from __future__ import annotations

from repro.executor.fetch import ADAPTIVE_PREFETCH, NAIVE_FETCH, SORTED_BITMAP_FETCH
from repro.executor.plans import (
    CoveringRidJoinNode,
    FetchNode,
    IndexRangeRidsNode,
    PlanNode,
    RidIntersectNode,
    TableScanNode,
)
from repro.systems.base import DatabaseSystem
from repro.workloads.queries import SinglePredicateQuery, TwoPredicateQuery


class SystemA(DatabaseSystem):
    name = "A"
    description = "single-column non-clustered indexes; improved index scan"

    def _build_indexes(self) -> None:
        config = self.config
        self.idx_a = self.table.create_index("idx_a", [config.a_column])
        self.idx_b = self.table.create_index("idx_b", [config.b_column])
        self.idx_project = self.table.create_index(
            "idx_project", [config.project_column]
        )

    # ------------------------------------------------------------------
    # Figs 4-10: the 7 two-predicate plans
    # ------------------------------------------------------------------

    def two_predicate_plans(self, query: TwoPredicateQuery) -> dict[str, PlanNode]:
        pa, pb = query.predicate_a, query.predicate_b
        a_rids = lambda: IndexRangeRidsNode(self.idx_a, pa)  # noqa: E731
        b_rids = lambda: IndexRangeRidsNode(self.idx_b, pb)  # noqa: E731
        return {
            self.qualify("table_scan"): TableScanNode(
                self.table, [pa, pb], project=[pa.column, pb.column]
            ),
            self.qualify("idx_a_fetch"): FetchNode(
                a_rids(),
                self.table,
                ADAPTIVE_PREFETCH,
                residual=[pb],
                project=[pa.column, pb.column],
            ),
            self.qualify("idx_b_fetch"): FetchNode(
                b_rids(),
                self.table,
                ADAPTIVE_PREFETCH,
                residual=[pa],
                project=[pa.column, pb.column],
            ),
            self.qualify("merge_ab"): RidIntersectNode(
                a_rids(), b_rids(), algorithm="merge"
            ),
            self.qualify("merge_ba"): RidIntersectNode(
                b_rids(), a_rids(), algorithm="merge"
            ),
            self.qualify("hash_ab"): RidIntersectNode(
                a_rids(), b_rids(), algorithm="hash", build="left"
            ),
            self.qualify("hash_ba"): RidIntersectNode(
                b_rids(), a_rids(), algorithm="hash", build="left"
            ),
        }

    # ------------------------------------------------------------------
    # Figs 1-2: single-predicate plans
    # ------------------------------------------------------------------

    def single_predicate_plans(
        self, query: SinglePredicateQuery
    ) -> dict[str, PlanNode]:
        predicate = query.predicate
        if predicate.column != self.config.b_column:
            raise ValueError(
                f"single-predicate sweeps use column {self.config.b_column!r}"
            )
        rids = lambda: IndexRangeRidsNode(self.idx_b, predicate)  # noqa: E731
        project = [query.project]
        return {
            self.qualify("table_scan"): TableScanNode(
                self.table, [predicate], project=project
            ),
            self.qualify("idx_traditional"): FetchNode(
                rids(), self.table, NAIVE_FETCH, project=project
            ),
            self.qualify("idx_improved"): FetchNode(
                rids(), self.table, ADAPTIVE_PREFETCH, project=project
            ),
            self.qualify("idx_bitmap"): FetchNode(
                rids(), self.table, SORTED_BITMAP_FETCH, project=project
            ),
            self.qualify("cover_merge"): CoveringRidJoinNode(
                rids(), self.idx_project, algorithm="merge"
            ),
            self.qualify("cover_hash_rids"): CoveringRidJoinNode(
                rids(), self.idx_project, algorithm="hash", build="child"
            ),
            self.qualify("cover_hash_index"): CoveringRidJoinNode(
                rids(), self.idx_project, algorithm="hash", build="index"
            ),
        }
