"""Pluggable sweep scenarios: N-D robustness maps beyond selectivity.

The paper's robustness maps sweep predicate selectivities, but §4 extends
the idea to further dimensions — memory, data size — where "sort
implementations lacking graceful degradation will show discontinuous
execution costs".  A :class:`Scenario` captures everything one sweep
needs, so a single generic :meth:`RobustnessSweep.sweep` drives any of
them:

* an ordered tuple of swept :class:`~repro.core.parameter_space.Axis`
  objects (selectivity, memory budget, input rows, ...) spanning an N-D
  grid;
* one or more *plan providers* — objects with a
  ``runner(budget_seconds=..., memory_bytes=...) -> PlanRunner`` method
  (every :class:`~repro.systems.base.DatabaseSystem` qualifies, and
  :class:`OperatorBench` hosts bare operators without a database);
* a per-cell hook (:meth:`Scenario.cell`) yielding the forced plans, the
  oracle result size, and optional per-cell runner overrides such as the
  workspace memory budget.

Scenarios serialize to a picklable :class:`ScenarioSpec` so the parallel
engine can rebuild them inside worker processes; the registry maps spec
names back to classes.  The measured result is an N-D-capable
:class:`~repro.core.mapdata.MapData` whose axes carry the scenario's
dimension names.

The paper's two canonical sweeps are :class:`SinglePredicateScenario`
and :class:`TwoPredicateScenario`; the §4 dimensions come in with
:class:`SortSpillScenario` (input rows x memory, two spill policies as
plans) and :class:`MemorySweepScenario` (selectivity x memory budget).
:class:`JoinScenario` opens the join workload of Figs 4-5: build rows x
probe rows (optionally x memory) over the merge / hash / index
nested-loop join plans, read through the symmetry landmark.
:class:`EstimationErrorScenario` adds the compile-time dimension —
selectivity x estimation-error magnitude — feeding the optimizer
subsystem's choice and regret maps (:mod:`repro.core.choice`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.parameter_space import Axis
from repro.errors import ExperimentError
from repro.executor.joins import (
    JOIN_PLAN_IDS,
    MergeJoinNode,
    join_matches,
    join_plan_inventory,
)
from repro.executor.plans import ExternalSortNode, PlanNode, PlanRunner
from repro.executor.sort import SpillPolicy
from repro.optimizer.estimation import (
    CardinalityEstimator,
    Estimate,
    EstimationError,
)
from repro.sim.profile import DeviceProfile
from repro.storage.env import StorageEnv
from repro.workloads.queries import SinglePredicateQuery
from repro.workloads.selectivity import PredicateBuilder


# ---------------------------------------------------------------------------
# specs and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable description of a scenario: registry name + parameters.

    ``params`` must always contain ``"axes"``: a list of
    ``[name, [targets...]]`` pairs, so the grid shape is recoverable
    without building any systems (the parallel driver needs it for
    chunking).  Everything else is scenario-specific.
    """

    name: str
    params: dict

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(targets) for _name, targets in self.params["axes"])

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid_shape))

    def spec_axes(self) -> tuple[Axis, ...]:
        return tuple(
            Axis(str(name), np.asarray(targets, dtype=float))
            for name, targets in self.params["axes"]
        )


SCENARIO_TYPES: dict[str, type["Scenario"]] = {}


def register_scenario(cls: type["Scenario"]) -> type["Scenario"]:
    """Class decorator: make a scenario rebuildable from its spec.

    Registration is what lets :class:`~repro.core.parallel.ParallelSweep`
    workers resolve a :class:`ScenarioSpec` back to a class.  (The bench
    CLI's ``--scenario`` names are a separate, session-scale concern —
    see ``repro.bench.requests.MAP_DEFINITIONS``.)
    """
    if cls.name in SCENARIO_TYPES:
        raise ExperimentError(f"duplicate scenario name {cls.name!r}")
    SCENARIO_TYPES[cls.name] = cls
    return cls


def build_scenario(spec: ScenarioSpec, providers: Sequence) -> "Scenario":
    """Rebuild a scenario from its spec (worker-side entry point)."""
    try:
        scenario_type = SCENARIO_TYPES[spec.name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {spec.name!r}; "
            f"registered: {sorted(SCENARIO_TYPES)}"
        ) from None
    return scenario_type.from_spec(spec, list(providers))


# ---------------------------------------------------------------------------
# the abstraction
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    """Everything the sweep needs to measure one grid cell.

    ``plans`` maps provider index -> forced plan dict; ``memory_bytes``
    (when not None) overrides the sweep-level workspace budget for this
    cell — the knob :class:`MemorySweepScenario` and
    :class:`SortSpillScenario` turn per cell instead of per sweep.
    """

    expected_rows: int
    plans: list[tuple[int, dict[str, PlanNode]]]
    memory_bytes: int | None = None
    describe: str = ""


class Scenario(ABC):
    """One sweepable experiment: axes, plan providers, per-cell oracle."""

    name: str = "?"

    @property
    @abstractmethod
    def axes(self) -> tuple[Axis, ...]:
        """Ordered swept axes; their sizes span the grid."""

    @abstractmethod
    def providers(self) -> list:
        """Plan providers (objects with a ``runner(...)`` method)."""

    @abstractmethod
    def plan_ids_by_provider(self) -> list[list[str]]:
        """Plan ids grouped by provider, for collision detection."""

    @abstractmethod
    def cell(self, idx: tuple[int, ...]) -> Cell:
        """Plans + oracle for the cell at the given per-axis indices."""

    def achieved(self, axis: int) -> np.ndarray | None:
        """Achieved axis values (None: targets were hit exactly)."""
        return None

    def meta(self, sweep) -> dict:
        """Scenario-specific MapData meta entries."""
        return {}

    @abstractmethod
    def spec(self) -> ScenarioSpec:
        """Picklable spec this scenario can be rebuilt from."""

    @classmethod
    @abstractmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        """Rebuild from a spec plus worker-local providers."""

    # ------------------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(axis.n_points for axis in self.axes)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid_shape))

    def run(self, plan_filter=None, cells=None, policy=None, **sweep_kwargs):
        """Convenience: sweep this scenario serially in-process.

        ``policy`` selects the cell policy (default: dense grid; pass an
        :class:`~repro.core.driver.AdaptiveRefinePolicy` for
        coarse-to-fine refinement).  ``sweep_kwargs`` are forwarded to
        :class:`~repro.core.runner.RobustnessSweep` (budget_seconds,
        memory_bytes, jitter, verify_agreement, progress, and the
        content-addressed ``cell_store`` / ``store_context`` — see
        :mod:`repro.core.cellstore`).
        """
        from repro.core.runner import RobustnessSweep

        sweep = RobustnessSweep(self.providers(), **sweep_kwargs)
        return sweep.sweep(
            self, plan_filter=plan_filter, cells=cells, policy=policy
        )


# ---------------------------------------------------------------------------
# the paper's two canonical sweeps, as scenarios
# ---------------------------------------------------------------------------


def _require_systems(systems: Sequence) -> list:
    systems = list(systems)
    if not systems:
        raise ExperimentError("scenario needs at least one system")
    return systems


@register_scenario
class SinglePredicateScenario(Scenario):
    """1-D selectivity sweep of the single-predicate query (Figs 1-2)."""

    name = "single-predicate"

    def __init__(self, systems: Sequence, space, column: str | None = None) -> None:
        self.systems = _require_systems(systems)
        reference = self.systems[0]
        self._requested_column = column
        self.column = column or reference.config.b_column
        self._axis = Axis(space.name, space.targets)
        builder = PredicateBuilder(reference.table, self.column)
        self._predicates = builder.predicates_for_grid(self._axis.targets)
        self._achieved = np.asarray([a for _p, a in self._predicates])
        # Oracle result sizes cached once per sweep: rescanning the full
        # column at every cell was O(cells x rows) for no reason.
        column_values = reference.table.column(self.column)
        self._oracle_rows = [
            int(np.count_nonzero(predicate.mask(column_values)))
            for predicate, _achieved in self._predicates
        ]

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self._axis,)

    def providers(self) -> list:
        return self.systems

    def _query(self, i: int) -> SinglePredicateQuery:
        return SinglePredicateQuery(self._predicates[i][0])

    def plan_ids_by_provider(self) -> list[list[str]]:
        first = self._query(0)
        return [
            list(system.plans_for(first)) for system in self.systems
        ]

    def cell(self, idx: tuple[int, ...]) -> Cell:
        (i,) = idx
        query = self._query(i)
        return Cell(
            expected_rows=self._oracle_rows[i],
            plans=[
                (s, system.plans_for(query))
                for s, system in enumerate(self.systems)
            ],
            describe=f"sel={self._predicates[i][1]:.2e}",
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        return self._achieved if axis == 0 else None

    def meta(self, sweep) -> dict:
        reference = self.systems[0]
        return {
            "sweep": "single-predicate",
            "column": self.column,
            "budget_seconds": sweep.budget_seconds,
            "systems": [system.name for system in self.systems],
            "n_rows_table": reference.table.n_rows,
        }

    @classmethod
    def build_spec(cls, space, column: str | None = None) -> ScenarioSpec:
        """Spec for this scenario without building any systems.

        The single source of the params layout ``from_spec`` expects —
        drivers that ship a spec to workers without constructing the
        (table-holding) scenario locally should use this.
        """
        return ScenarioSpec(
            cls.name,
            {
                "axes": [
                    [space.name, np.asarray(space.targets, dtype=float).tolist()]
                ],
                "column": column,
            },
        )

    def spec(self) -> ScenarioSpec:
        return type(self).build_spec(self._axis, column=self._requested_column)

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        (axis,) = spec.spec_axes()
        return cls(providers, axis, column=spec.params.get("column"))


@register_scenario
class TwoPredicateScenario(Scenario):
    """2-D selectivity x selectivity sweep (Figs 4-10)."""

    name = "two-predicate"

    def __init__(self, systems: Sequence, space) -> None:
        self.systems = _require_systems(systems)
        reference = self.systems[0]
        self.a_column = reference.config.a_column
        self.b_column = reference.config.b_column
        self._x = Axis(space.x.name, space.x.targets)
        self._y = Axis(space.y.name, space.y.targets)
        builder_a = PredicateBuilder(reference.table, self.a_column)
        builder_b = PredicateBuilder(reference.table, self.b_column)
        self._preds_a = builder_a.predicates_for_grid(self._x.targets)
        self._preds_b = builder_b.predicates_for_grid(self._y.targets)
        self._mask_a = [
            predicate.mask(reference.table.column(self.a_column))
            for predicate, _ in self._preds_a
        ]
        self._mask_b = [
            predicate.mask(reference.table.column(self.b_column))
            for predicate, _ in self._preds_b
        ]

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self._x, self._y)

    def providers(self) -> list:
        return self.systems

    def _query(self, ix: int, iy: int):
        from repro.workloads.queries import TwoPredicateQuery

        return TwoPredicateQuery(self._preds_a[ix][0], self._preds_b[iy][0])

    def plan_ids_by_provider(self) -> list[list[str]]:
        first = self._query(0, 0)
        return [
            list(system.plans_for(first)) for system in self.systems
        ]

    def cell(self, idx: tuple[int, ...]) -> Cell:
        ix, iy = idx
        query = self._query(ix, iy)
        expected = int(np.count_nonzero(self._mask_a[ix] & self._mask_b[iy]))
        return Cell(
            expected_rows=expected,
            plans=[
                (s, system.plans_for(query))
                for s, system in enumerate(self.systems)
            ],
            describe=f"{ix},{iy}",
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        preds = (self._preds_a, self._preds_b)[axis]
        return np.asarray([a for _p, a in preds])

    def meta(self, sweep) -> dict:
        reference = self.systems[0]
        return {
            "sweep": "two-predicate",
            "a_column": self.a_column,
            "b_column": self.b_column,
            "budget_seconds": sweep.budget_seconds,
            "systems": [system.name for system in self.systems],
            "n_rows_table": reference.table.n_rows,
        }

    @classmethod
    def build_spec(cls, x, y) -> ScenarioSpec:
        """Spec from the two selectivity axes, without building systems."""
        return ScenarioSpec(
            cls.name,
            {
                "axes": [
                    [x.name, np.asarray(x.targets, dtype=float).tolist()],
                    [y.name, np.asarray(y.targets, dtype=float).tolist()],
                ]
            },
        )

    def spec(self) -> ScenarioSpec:
        return type(self).build_spec(self._x, self._y)

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        from repro.core.parameter_space import Space2D

        x, y = spec.spec_axes()
        return cls(providers, Space2D(x, y))


# ---------------------------------------------------------------------------
# §4 dimensions: memory and data size enter the engine proper
# ---------------------------------------------------------------------------


class OperatorBench:
    """Plan provider for scenarios that run bare operators.

    Hosts a storage environment (virtual clock, disk, temp store) without
    any table or indexes, so operator-level scenarios like
    :class:`SortSpillScenario` get the same cold-cache measurement,
    budget censoring, and jitter machinery as the database systems.
    """

    name = "op"

    def __init__(self, profile: DeviceProfile | None = None) -> None:
        self.env = StorageEnv(profile or DeviceProfile())

    def runner(
        self,
        budget_seconds: float | None = None,
        memory_bytes: int | None = None,
    ) -> PlanRunner:
        return PlanRunner(
            self.env,
            memory_bytes=memory_bytes,
            budget_seconds=budget_seconds,
            cold=True,
        )


def operator_bench_factory() -> list[OperatorBench]:
    """Picklable provider factory for :class:`ParallelSweep`."""
    return [OperatorBench()]


@register_scenario
class SortSpillScenario(Scenario):
    """Input rows x memory budget for the two sort spill policies (§4).

    The two "plans" are the same external sort under
    :attr:`SpillPolicy.ALL_OR_NOTHING` (discontinuous cliff at the
    memory boundary) and :attr:`SpillPolicy.GRACEFUL` (smooth
    degradation) — the paper's predicted robustness contrast.
    """

    name = "sort-spill"

    def __init__(
        self,
        provider: OperatorBench | None = None,
        row_targets: Sequence[int] = (),
        memory_targets: Sequence[int] = (),
        row_bytes: int = 128,
        seed: int = 2009,
    ) -> None:
        self.provider = provider or OperatorBench()
        self.row_bytes = int(row_bytes)
        self.seed = int(seed)
        self._rows_axis = Axis("input_rows", np.asarray(row_targets, dtype=float))
        self._memory_axis = Axis(
            "memory_bytes", np.asarray(memory_targets, dtype=float)
        )

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self._rows_axis, self._memory_axis)

    def providers(self) -> list:
        return [self.provider]

    def plan_ids_by_provider(self) -> list[list[str]]:
        return [[f"sort.{policy.value}" for policy in self._policies()]]

    @staticmethod
    def _policies() -> tuple[SpillPolicy, SpillPolicy]:
        return (SpillPolicy.ALL_OR_NOTHING, SpillPolicy.GRACEFUL)

    def input_values(self, n_rows: int) -> np.ndarray:
        """The deterministic sort input for a given row count."""
        rng = np.random.default_rng([self.seed, n_rows])
        return rng.integers(0, 1 << 30, n_rows)

    def baseline_seconds(self) -> float:
        """Cost of the largest input sorted fully in memory.

        A scenario-intrinsic budget yardstick (analogous to the table
        scan for the selectivity sweeps): cost budgets scale off the
        cheapest way to do the most work, so only pathological spill
        blowups get censored.
        """
        n_rows = int(self._rows_axis.targets[-1])
        runner = self.provider.runner(
            memory_bytes=(n_rows + 1) * self.row_bytes
        )
        run = runner.measure(
            ExternalSortNode(
                self.input_values(n_rows),
                row_bytes=self.row_bytes,
                policy=SpillPolicy.GRACEFUL,
            )
        )
        return run.seconds

    def cell(self, idx: tuple[int, ...]) -> Cell:
        i, j = idx
        n_rows = int(self._rows_axis.targets[i])
        memory = int(self._memory_axis.targets[j])
        values = self.input_values(n_rows)
        plans = {
            f"sort.{policy.value}": ExternalSortNode(
                values, row_bytes=self.row_bytes, policy=policy
            )
            for policy in self._policies()
        }
        return Cell(
            expected_rows=n_rows,
            plans=[(0, plans)],
            memory_bytes=memory,
            describe=f"rows={n_rows} mem={memory}",
        )

    def meta(self, sweep) -> dict:
        return {
            "sweep": "sort-spill",
            "row_bytes": self.row_bytes,
            "seed": self.seed,
            "budget_seconds": sweep.budget_seconds,
            "systems": [self.provider.name],
        }

    def spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            self.name,
            {
                "axes": [
                    [self._rows_axis.name, self._rows_axis.targets.tolist()],
                    [
                        self._memory_axis.name,
                        self._memory_axis.targets.tolist(),
                    ],
                ],
                "row_bytes": self.row_bytes,
                "seed": self.seed,
            },
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        rows_axis, memory_axis = spec.spec_axes()
        provider = providers[0] if providers else None
        if provider is not None and not isinstance(provider, OperatorBench):
            # A systems factory was supplied; sort plans only need an env,
            # so wrap a fresh bench rather than borrowing the system's.
            provider = OperatorBench()
        return cls(
            provider,
            row_targets=rows_axis.targets,
            memory_targets=memory_axis.targets,
            row_bytes=int(spec.params.get("row_bytes", 128)),
            seed=int(spec.params.get("seed", 2009)),
        )


@register_scenario
class MemorySweepScenario(Scenario):
    """Selectivity x memory budget over the systems' forced plans (§4).

    Reuses the single-predicate plan inventory but turns the workspace
    ``memory_bytes`` knob *per cell* instead of per sweep, exposing which
    plans degrade gracefully when their hash/sort workspaces shrink.
    """

    name = "memory-sweep"

    def __init__(
        self,
        systems: Sequence,
        space,
        memory_targets: Sequence[int],
        column: str | None = None,
    ) -> None:
        self.systems = _require_systems(systems)
        reference = self.systems[0]
        self._requested_column = column
        self.column = column or reference.config.b_column
        self._sel_axis = Axis(space.name, space.targets)
        self._memory_axis = Axis(
            "memory_bytes", np.asarray(memory_targets, dtype=float)
        )
        builder = PredicateBuilder(reference.table, self.column)
        self._predicates = builder.predicates_for_grid(self._sel_axis.targets)
        self._achieved = np.asarray([a for _p, a in self._predicates])
        column_values = reference.table.column(self.column)
        self._oracle_rows = [
            int(np.count_nonzero(predicate.mask(column_values)))
            for predicate, _achieved in self._predicates
        ]

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self._sel_axis, self._memory_axis)

    def providers(self) -> list:
        return self.systems

    def plan_ids_by_provider(self) -> list[list[str]]:
        first = SinglePredicateQuery(self._predicates[0][0])
        return [
            list(system.plans_for(first)) for system in self.systems
        ]

    def cell(self, idx: tuple[int, ...]) -> Cell:
        i, j = idx
        query = SinglePredicateQuery(self._predicates[i][0])
        memory = int(self._memory_axis.targets[j])
        return Cell(
            expected_rows=self._oracle_rows[i],
            plans=[
                (s, system.plans_for(query))
                for s, system in enumerate(self.systems)
            ],
            memory_bytes=memory,
            describe=f"sel={self._predicates[i][1]:.2e} mem={memory}",
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        return self._achieved if axis == 0 else None

    def meta(self, sweep) -> dict:
        reference = self.systems[0]
        return {
            "sweep": "memory-sweep",
            "column": self.column,
            "budget_seconds": sweep.budget_seconds,
            "systems": [system.name for system in self.systems],
            "n_rows_table": reference.table.n_rows,
        }

    @classmethod
    def build_spec(
        cls,
        space,
        memory_targets: Sequence[int],
        column: str | None = None,
    ) -> ScenarioSpec:
        """Spec for this scenario without building any systems.

        The single source of the params layout ``from_spec`` expects —
        drivers that want to ship a spec to workers without constructing
        the (table-holding) scenario locally should use this.
        """
        return ScenarioSpec(
            cls.name,
            {
                "axes": [
                    [
                        space.name,
                        np.asarray(space.targets, dtype=float).tolist(),
                    ],
                    ["memory_bytes", [float(m) for m in memory_targets]],
                ],
                "column": column,
            },
        )

    def spec(self) -> ScenarioSpec:
        return type(self).build_spec(
            self._sel_axis,
            self._memory_axis.targets,
            column=self._requested_column,
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        sel_axis, memory_axis = spec.spec_axes()
        return cls(
            providers,
            sel_axis,
            memory_targets=memory_axis.targets,
            column=spec.params.get("column"),
        )


@register_scenario
class EstimationErrorScenario(Scenario):
    """Selectivity x estimation-error magnitude over forced plans.

    The run-time side is the familiar single-predicate sweep: every plan
    is measured at every cell, and the measured costs are *independent*
    of the error axis (the error model perturbs estimates, never
    executions).  The compile-time side is what the second axis turns:
    :meth:`estimates` yields each cell's true cardinalities pushed
    through a deterministic q-error of that cell's magnitude, and
    :meth:`candidate_plans` the inventory an optimizer chooses from —
    the inputs :func:`repro.core.choice.build_choice_map` combines with a
    :class:`~repro.optimizer.chooser.PlanChooser` into choice and regret
    maps.

    Determinism contract: the standard-normal draw behind a cell's
    q-factor is keyed on the *workload* index (the selectivity cell) and
    the quantity name only; the magnitude axis merely scales it.
    Walking the error axis therefore amplifies one fixed misestimation
    per selectivity instead of re-rolling it, magnitude 0 reproduces the
    true values exactly, and the whole surface is bit-identical across
    processes and runs.
    """

    name = "estimation-error"

    def __init__(
        self,
        systems: Sequence,
        space,
        magnitudes: Sequence[float],
        column: str | None = None,
        error_bias: float = 0.0,
        error_seed: int = 2009,
    ) -> None:
        self.systems = _require_systems(systems)
        reference = self.systems[0]
        self._requested_column = column
        self.column = column or reference.config.b_column
        self.error_bias = float(error_bias)
        self.error_seed = int(error_seed)
        self._sel_axis = Axis(space.name, space.targets)
        self._magnitude_axis = Axis(
            "error_magnitude", np.asarray(magnitudes, dtype=float)
        )
        if np.any(self._magnitude_axis.targets < 0):
            raise ExperimentError("error magnitudes must be non-negative")
        builder = PredicateBuilder(reference.table, self.column)
        self._predicates = builder.predicates_for_grid(self._sel_axis.targets)
        self._achieved = np.asarray([a for _p, a in self._predicates])
        column_values = reference.table.column(self.column)
        self._oracle_rows = [
            int(np.count_nonzero(predicate.mask(column_values)))
            for predicate, _achieved in self._predicates
        ]
        self._estimator = CardinalityEstimator(
            EstimationError(bias=self.error_bias, seed=self.error_seed)
        )
        self._true_cards: dict[int, dict[str, float]] = {}

    @property
    def axes(self) -> tuple[Axis, ...]:
        return (self._sel_axis, self._magnitude_axis)

    def providers(self) -> list:
        return self.systems

    def _query(self, i: int) -> SinglePredicateQuery:
        return SinglePredicateQuery(self._predicates[i][0])

    def plan_ids_by_provider(self) -> list[list[str]]:
        first = self._query(0)
        return [list(system.plans_for(first)) for system in self.systems]

    def cell(self, idx: tuple[int, ...]) -> Cell:
        i, j = idx
        query = self._query(i)
        return Cell(
            expected_rows=self._oracle_rows[i],
            plans=[
                (s, system.plans_for(query))
                for s, system in enumerate(self.systems)
            ],
            describe=(
                f"sel={self._predicates[i][1]:.2e} "
                f"err={self._magnitude_axis.targets[j]:.2f}"
            ),
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        return self._achieved if axis == 0 else None

    # ------------------------------------------------------------------
    # the compile-time side
    # ------------------------------------------------------------------

    def magnitude(self, idx: tuple[int, ...]) -> float:
        return float(self._magnitude_axis.targets[idx[1]])

    def true_cards(self, idx: tuple[int, ...]) -> dict[str, float]:
        """Oracle cardinalities of the cell's query (the workload side).

        Delegates to :meth:`DatabaseSystem.true_cards` — the single
        owner of the estimate-key convention — cached per selectivity
        index (the error axis shares the workload).
        """
        i = int(idx[0])
        if i not in self._true_cards:
            self._true_cards[i] = self.systems[0].true_cards(self._query(i))
        return dict(self._true_cards[i])

    def estimates(self, idx: tuple[int, ...]) -> Estimate:
        """The cell's perturbed estimates (see the determinism contract)."""
        return self._estimator.estimate(
            self.true_cards(idx),
            key=(int(idx[0]),),
            magnitude=self.magnitude(idx),
        )

    def candidate_plans(
        self, idx: tuple[int, ...], provider: int = 0
    ) -> dict[str, PlanNode]:
        """Fresh plan trees one provider's optimizer chooses from."""
        return self.systems[provider].plans_for(self._query(idx[0]))

    # ------------------------------------------------------------------

    def meta(self, sweep) -> dict:
        reference = self.systems[0]
        return {
            "sweep": "estimation-error",
            "column": self.column,
            "error_bias": self.error_bias,
            "error_seed": self.error_seed,
            "budget_seconds": sweep.budget_seconds,
            "systems": [system.name for system in self.systems],
            "n_rows_table": reference.table.n_rows,
        }

    @classmethod
    def build_spec(
        cls,
        space,
        magnitudes: Sequence[float],
        column: str | None = None,
        error_bias: float = 0.0,
        error_seed: int = 2009,
    ) -> ScenarioSpec:
        """Spec for this scenario without building any systems."""
        return ScenarioSpec(
            cls.name,
            {
                "axes": [
                    [
                        space.name,
                        np.asarray(space.targets, dtype=float).tolist(),
                    ],
                    ["error_magnitude", [float(m) for m in magnitudes]],
                ],
                "column": column,
                "error_bias": float(error_bias),
                "error_seed": int(error_seed),
            },
        )

    def spec(self) -> ScenarioSpec:
        return type(self).build_spec(
            self._sel_axis,
            self._magnitude_axis.targets,
            column=self._requested_column,
            error_bias=self.error_bias,
            error_seed=self.error_seed,
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        sel_axis, magnitude_axis = spec.spec_axes()
        return cls(
            providers,
            sel_axis,
            magnitudes=magnitude_axis.targets,
            column=spec.params.get("column"),
            error_bias=float(spec.params.get("error_bias", 0.0)),
            error_seed=int(spec.params.get("error_seed", 2009)),
        )


@register_scenario
class JoinScenario(Scenario):
    """Build rows x probe rows over the join plan inventory (Figs 4-5).

    Both inputs draw from the *same* deterministic generator keyed only
    by row count, so the cell at ``(i, j)`` joins exactly the swapped
    inputs of the cell at ``(j, i)`` — which makes the paper's symmetry
    landmark sharp: the merge join's map is symmetric by construction
    (``symmetry_score`` ~ 0 on a square grid) while the hash joins'
    build-side memory cliff and double hashing cost, and the index
    nested-loop join's probe-bound cost, are not.

    ``memory_targets`` optionally adds workspace memory as a third swept
    axis (per-cell budgets, like :class:`MemorySweepScenario`); without
    it the sweep-level ``memory_bytes`` knob applies.
    """

    name = "join"

    def __init__(
        self,
        provider: OperatorBench | None = None,
        build_targets: Sequence[int] = (),
        probe_targets: Sequence[int] = (),
        memory_targets: Sequence[int] | None = None,
        row_bytes: int = 16,
        key_domain: int = 1 << 16,
        seed: int = 2009,
    ) -> None:
        self.provider = provider or OperatorBench()
        self.row_bytes = int(row_bytes)
        self.key_domain = int(key_domain)
        self.seed = int(seed)
        self._build_axis = Axis(
            "build_rows", np.asarray(build_targets, dtype=float)
        )
        self._probe_axis = Axis(
            "probe_rows", np.asarray(probe_targets, dtype=float)
        )
        self._memory_axis = (
            Axis("memory_bytes", np.asarray(memory_targets, dtype=float))
            if memory_targets is not None and len(memory_targets)
            else None
        )

    @property
    def axes(self) -> tuple[Axis, ...]:
        if self._memory_axis is None:
            return (self._build_axis, self._probe_axis)
        return (self._build_axis, self._probe_axis, self._memory_axis)

    def providers(self) -> list:
        return [self.provider]

    def plan_ids_by_provider(self) -> list[list[str]]:
        return [list(JOIN_PLAN_IDS)]

    def input_values(self, n_rows: int) -> np.ndarray:
        """Deterministic join input for a row count (same for both sides)."""
        rng = np.random.default_rng([self.seed, n_rows])
        return rng.integers(0, self.key_domain, n_rows).astype(np.int64)

    def baseline_seconds(self) -> float:
        """Cost of merge-joining the largest inputs fully in memory.

        The scenario-intrinsic budget yardstick (compare
        :meth:`SortSpillScenario.baseline_seconds`): budgets scale off
        the cheapest way to do the most work, so only pathological spill
        or probe blowups get censored.
        """
        n_build = int(self._build_axis.targets[-1])
        n_probe = int(self._probe_axis.targets[-1])
        runner = self.provider.runner(
            memory_bytes=2 * (n_build + n_probe + 2) * self.row_bytes
        )
        run = runner.measure(
            MergeJoinNode(
                self.input_values(n_build),
                self.input_values(n_probe),
                row_bytes=self.row_bytes,
            )
        )
        return run.seconds

    def cell(self, idx: tuple[int, ...]) -> Cell:
        i, j = idx[0], idx[1]
        n_build = int(self._build_axis.targets[i])
        n_probe = int(self._probe_axis.targets[j])
        build = self.input_values(n_build)
        probe = self.input_values(n_probe)
        memory = (
            int(self._memory_axis.targets[idx[2]])
            if self._memory_axis is not None
            else None
        )
        describe = f"build={n_build} probe={n_probe}"
        if memory is not None:
            describe += f" mem={memory}"
        return Cell(
            expected_rows=int(join_matches(build, probe).size),
            plans=[(0, join_plan_inventory(build, probe, self.row_bytes))],
            memory_bytes=memory,
            describe=describe,
        )

    def meta(self, sweep) -> dict:
        return {
            "sweep": "join",
            "row_bytes": self.row_bytes,
            "key_domain": self.key_domain,
            "seed": self.seed,
            "budget_seconds": sweep.budget_seconds,
            "systems": [self.provider.name],
        }

    def spec(self) -> ScenarioSpec:
        axes = [
            [self._build_axis.name, self._build_axis.targets.tolist()],
            [self._probe_axis.name, self._probe_axis.targets.tolist()],
        ]
        if self._memory_axis is not None:
            axes.append(
                [self._memory_axis.name, self._memory_axis.targets.tolist()]
            )
        return ScenarioSpec(
            self.name,
            {
                "axes": axes,
                "row_bytes": self.row_bytes,
                "key_domain": self.key_domain,
                "seed": self.seed,
            },
        )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        axes = spec.spec_axes()
        memory_targets = axes[2].targets if len(axes) == 3 else None
        provider = providers[0] if providers else None
        if provider is not None and not isinstance(provider, OperatorBench):
            # A systems factory was supplied; join plans only need an env,
            # so wrap a fresh bench rather than borrowing the system's.
            provider = OperatorBench()
        return cls(
            provider,
            build_targets=axes[0].targets,
            probe_targets=axes[1].targets,
            memory_targets=memory_targets,
            row_bytes=int(spec.params.get("row_bytes", 16)),
            key_domain=int(spec.params.get("key_domain", 1 << 16)),
            seed=int(spec.params.get("seed", 2009)),
        )
