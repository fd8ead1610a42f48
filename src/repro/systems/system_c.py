"""System C: covering two-column indexes exploited with MDAM.

"The foundation of this consistent performance is a very sophisticated
scan for multi-column indexes described as multi-dimensional B-tree
access" (Fig 9).  System C versions index entries, so covering plans are
legal and never fetch base rows; the MDAM variants skip non-qualifying
leaves, the plain variants scan the bounding range and filter in-index.
"""

from __future__ import annotations

from repro.executor.plans import CoveringCompositeScanNode, PlanNode
from repro.systems.base import DatabaseSystem
from repro.workloads.queries import TwoPredicateQuery


class SystemC(DatabaseSystem):
    name = "C"
    description = "covering two-column indexes with MDAM (multi-dimensional B-tree access)"

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
        return {
            self.qualify("ab_mdam"): CoveringCompositeScanNode(
                self.idx_ab, pa, pb, use_mdam=True
            ),
            self.qualify("ba_mdam"): CoveringCompositeScanNode(
                self.idx_ba, pb, pa, use_mdam=True
            ),
            self.qualify("ab_range"): CoveringCompositeScanNode(
                self.idx_ab, pa, pb, use_mdam=False
            ),
            self.qualify("ba_range"): CoveringCompositeScanNode(
                self.idx_ba, pb, pa, use_mdam=False
            ),
        }
