"""Common machinery for the simulated database systems."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BufferPoolError, PlanError
from repro.executor.plans import PlanNode, PlanRunner
from repro.optimizer.cost_model import CostModel
from repro.sim.profile import DeviceProfile
from repro.storage.env import StorageEnv
from repro.storage.table import Table
from repro.workloads.lineitem import LineitemConfig, build_lineitem, lineitem_columns
from repro.workloads.queries import SinglePredicateQuery, TwoPredicateQuery


@dataclass(frozen=True)
class SystemConfig:
    """Shared configuration for building a system."""

    lineitem: LineitemConfig = field(default_factory=LineitemConfig)
    profile: DeviceProfile = field(default_factory=DeviceProfile)
    pool_pages: int = 256
    a_column: str = "partkey"
    b_column: str = "extendedprice"
    project_column: str = "suppkey"

    def __post_init__(self) -> None:
        if self.pool_pages < 1:
            raise BufferPoolError(
                f"pool_pages must be >= 1, got {self.pool_pages}"
            )


class DatabaseSystem(ABC):
    """One system under test: an environment, the data, and its plans.

    Each system hosts its own copy of the (identical) data in its own
    device environment, mirroring how the paper loaded one dataset into
    three separate database systems.

    Every system is a *plan provider* in the scenario sense
    (:mod:`repro.core.scenario`): it exposes forced plan inventories per
    query template (:meth:`plans_for` dispatches on the template type)
    and builds cold-cache measurement runners via :meth:`runner` — the
    two hooks the generic N-D sweep drives.
    """

    name: str = "?"
    description: str = ""

    def __init__(
        self,
        config: SystemConfig | None = None,
        columns: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.env = StorageEnv(self.config.profile, pool_pages=self.config.pool_pages)
        if columns is None:
            columns = lineitem_columns(self.config.lineitem)
        self.table: Table = build_lineitem(self.env, self.config.lineitem, columns)
        self._build_indexes()

    @abstractmethod
    def _build_indexes(self) -> None:
        """Create the indexes this system's capabilities allow."""

    @abstractmethod
    def two_predicate_plans(self, query: TwoPredicateQuery) -> dict[str, PlanNode]:
        """Forced plans for the two-predicate selection (Figs 4-10)."""

    def single_predicate_plans(
        self, query: SinglePredicateQuery
    ) -> dict[str, PlanNode]:
        """Forced plans for the single-predicate selection (Figs 1-2)."""
        raise PlanError(f"system {self.name} does not define single-predicate plans")

    def plans_for(self, query) -> dict[str, PlanNode]:
        """Plan-provider hook: forced plans for any known query template.

        Scenarios use this to stay agnostic of the template; subclasses
        hosting new templates (aggregations, ...) extend the dispatch by
        overriding.
        """
        if isinstance(query, TwoPredicateQuery):
            return self.two_predicate_plans(query)
        if isinstance(query, SinglePredicateQuery):
            return self.single_predicate_plans(query)
        raise PlanError(
            f"system {self.name} has no plans for query template "
            f"{type(query).__name__}"
        )

    def runner(
        self,
        budget_seconds: float | None = None,
        memory_bytes: int | None = None,
    ) -> PlanRunner:
        """A cold-cache measurement runner for this system."""
        return PlanRunner(
            self.env, memory_bytes=memory_bytes, budget_seconds=budget_seconds
        )

    # ------------------------------------------------------------------
    # the compile-time optimizer
    # ------------------------------------------------------------------

    def cost_model(self, memory_bytes: int | None = None) -> CostModel:
        """The plan cost model over this system's device profile."""
        return CostModel(self.config.profile, memory_bytes=memory_bytes)

    def true_cards(self, query) -> dict[str, float]:
        """Oracle cardinalities for a query, in estimate-key form.

        These are what a perfect estimator would produce; feed them
        through a :class:`~repro.optimizer.estimation.CardinalityEstimator`
        to model estimation error.
        """
        n_rows = self.table.n_rows
        if isinstance(query, SinglePredicateQuery):
            column = query.predicate.column
            rows = float(query.oracle_rids(self.table).size)
            return {
                f"rows.{column}": rows,
                f"sel.{column}": rows / n_rows,
                "rows.out": rows,
            }
        raise PlanError(
            f"system {self.name} has no oracle cardinalities for "
            f"{type(query).__name__}"
        )

    def qualify(self, plan_id: str) -> str:
        """Namespace a plan id with the system name."""
        return f"{self.name}.{plan_id}"

    def __repr__(self) -> str:
        return f"<System {self.name}: {self.table!r}>"


def build_three_systems(
    config: SystemConfig | None = None,
) -> dict[str, DatabaseSystem]:
    """Build Systems A, B, C hosting identical data (generated once)."""
    from repro.systems.system_a import SystemA
    from repro.systems.system_b import SystemB
    from repro.systems.system_c import SystemC

    config = config or SystemConfig()
    columns = lineitem_columns(config.lineitem)
    return {
        "A": SystemA(config, columns=columns),
        "B": SystemB(config, columns=columns),
        "C": SystemC(config, columns=columns),
    }
