"""System B: two-column indexes, MVCC forces base-row fetches.

"Due to multi-version concurrency control applied only to rows in the
main table, this plan requires fetching full rows. ... rows to be fetched
are sorted very efficiently using a bitmap" (Fig 8).  System B therefore
cannot run covering index plans: every composite-index plan carries a
verify-only fetch, either bitmap-sorted (the flagship) or naive (the
degraded variant).
"""

from __future__ import annotations

from repro.executor.fetch import NAIVE_FETCH, SORTED_BITMAP_FETCH
from repro.executor.plans import CompositeRangeRidsNode, FetchNode, PlanNode
from repro.systems.base import DatabaseSystem
from repro.workloads.queries import TwoPredicateQuery


class SystemB(DatabaseSystem):
    name = "B"
    description = "two-column indexes; MVCC in base rows forces bitmap-sorted fetches"

    def _build_indexes(self) -> None:
        config = self.config
        self.idx_ab = self.table.create_index(
            "idx_ab", [config.a_column, config.b_column]
        )
        self.idx_ba = self.table.create_index(
            "idx_ba", [config.b_column, config.a_column]
        )

    def two_predicate_plans(self, query: TwoPredicateQuery) -> dict[str, PlanNode]:
        pa, pb = query.predicate_a, query.predicate_b
        ab_rids = lambda: CompositeRangeRidsNode(self.idx_ab, pa, pb)  # noqa: E731
        ba_rids = lambda: CompositeRangeRidsNode(self.idx_ba, pb, pa)  # noqa: E731
        return {
            self.qualify("ab_bitmap"): FetchNode(
                ab_rids(), self.table, SORTED_BITMAP_FETCH, verify_only=True
            ),
            self.qualify("ba_bitmap"): FetchNode(
                ba_rids(), self.table, SORTED_BITMAP_FETCH, verify_only=True
            ),
            self.qualify("ab_naive"): FetchNode(
                ab_rids(), self.table, NAIVE_FETCH, verify_only=True
            ),
            self.qualify("ba_naive"): FetchNode(
                ba_rids(), self.table, NAIVE_FETCH, verify_only=True
            ),
        }
