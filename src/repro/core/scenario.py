"""Pluggable sweep scenarios: N-D robustness maps beyond selectivity.

The paper's robustness maps sweep predicate selectivities, but §4 extends
the idea to further dimensions — memory, data size — where "sort
implementations lacking graceful degradation will show discontinuous
execution costs".  A :class:`Scenario` captures everything one sweep
needs, so a single generic :meth:`RobustnessSweep.sweep` drives any of
them:

* an ordered tuple of swept :class:`~repro.core.parameter_space.Space1D`
  objects (selectivity, memory budget, input rows, ...) spanning an N-D
  grid;
* one or more *plan providers* — objects with a
  ``runner(budget_seconds=..., memory_bytes=...) -> PlanRunner`` method
  (every :class:`~repro.systems.base.DatabaseSystem` qualifies, and
  :class:`OperatorBench` hosts bare operators without a database);
* a per-cell hook (:meth:`Scenario.cell`) yielding the forced plans, the
  oracle result size, and optional per-cell runner overrides such as the
  workspace memory budget.

A scenario *is* its picklable :class:`ScenarioSpec` bound to providers:
each class writes its parameter layout once (``build_spec``), every
constructor and :meth:`Scenario.from_spec` run the same
:meth:`Scenario.bind`, and axes, providers, spec and meta are derived
from that one description.  The parallel engine ships the spec to worker
processes; the registry maps spec names back to classes.  The measured
result is an N-D-capable :class:`~repro.core.mapdata.MapData` whose axes
carry the scenario's dimension names.

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

from repro.core.parameter_space import Space1D
from repro.errors import ExperimentError
from repro.executor.joins import (
    JOIN_PLAN_IDS,
    JoinIndex,
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
from repro.workloads.queries import SinglePredicateQuery, TwoPredicateQuery
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
    chunking).  Everything else is the scenario's own settings.
    """

    name: str
    params: dict

    @classmethod
    def of(cls, name: str, axes: Sequence[Space1D], **settings) -> "ScenarioSpec":
        """Spec from swept axes plus the scenario's settings, in order."""
        grids = [[axis.name, axis.targets.tolist()] for axis in axes]
        return cls(name, {"axes": grids, **settings})

    @property
    def settings(self) -> dict:
        """Everything but the axis grids."""
        return {k: v for k, v in self.params.items() if k != "axes"}

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(targets) for _name, targets in self.params["axes"])

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid_shape))

    def spec_axes(self) -> tuple[Space1D, ...]:
        return tuple(
            Space1D(str(name), np.asarray(targets, dtype=float))
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
    """One sweepable experiment: a spec bound to plan providers.

    A subclass states its parameter layout once — a ``build_spec``
    classmethod returning ``ScenarioSpec.of(cls.name, axes, **settings)``
    — and the inherited constructor takes the providers followed by
    ``build_spec``'s own arguments: ``self.bind(providers, build_spec(...))``.
    :meth:`bind` sets every setting as an attribute of the same name
    (annotate them on the class) and calls :meth:`setup`; ``axes``,
    :meth:`providers`, :meth:`spec`, :meth:`from_spec` and :meth:`meta`
    follow from the bound spec.  That leaves :meth:`plan_ids_by_provider`
    and :meth:`cell` to write.  A subclass may still override any of the
    derived members itself.
    """

    name: str = "?"

    def __init__(self, providers: Sequence, *layout, **settings) -> None:
        """Providers first, then exactly what ``build_spec`` takes."""
        self.bind(providers, self.build_spec(*layout, **settings))

    def bind(self, providers: Sequence, spec: ScenarioSpec) -> "Scenario":
        """Attach providers to a spec (what every constructor does)."""
        self._providers = list(providers)
        self._spec = spec
        self._axes = spec.spec_axes()
        vars(self).update(spec.settings)
        self.setup()
        return self

    def setup(self) -> None:
        """Derive per-sweep state (predicates, oracles) once bound."""

    @property
    def axes(self) -> tuple[Space1D, ...]:
        """Ordered swept axes; their sizes span the grid."""
        return self._axes

    def providers(self) -> list:
        """Plan providers (objects with a ``runner(...)`` method)."""
        return self._providers

    def spec(self) -> ScenarioSpec:
        """Picklable spec this scenario can be rebuilt from."""
        return self._spec

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, providers: list) -> "Scenario":
        """Rebuild from a spec plus worker-local providers."""
        return cls.__new__(cls).bind(providers, spec)

    @abstractmethod
    def plan_ids_by_provider(self) -> list[list[str]]:
        """Plan ids grouped by provider, for collision detection."""

    @abstractmethod
    def cell(self, idx: tuple[int, ...]) -> Cell:
        """Plans + oracle for the cell at the given per-axis indices."""

    def achieved(self, axis: int) -> np.ndarray | None:
        """Achieved axis values (None: targets were hit exactly)."""
        return None

    def meta_params(self) -> dict:
        """The settings as this instance resolved them (for :meth:`meta`)."""
        return {
            key: getattr(self, key, value)
            for key, value in self.spec().settings.items()
        }

    def meta(self, sweep) -> dict:
        """MapData meta entries; key order is part of the JSON format."""
        providers = self.providers()
        meta = {
            "sweep": self.name,
            **self.meta_params(),
            "budget_seconds": sweep.budget_seconds,
            "systems": [
                getattr(provider, "name", type(provider).__name__)
                for provider in providers
            ],
        }
        table = getattr(providers[0], "table", None) if providers else None
        if table is not None:
            meta["n_rows_table"] = table.n_rows
        return meta

    # ------------------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(axis.n_points for axis in self.axes)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid_shape))

    def run(self, policy=None, **sweep_kwargs):
        """Convenience: sweep this scenario serially in-process.

        ``policy`` selects the cell policy (default: dense grid; pass a
        :class:`~repro.core.driver.DenseGridPolicy` with ``cells`` for a
        subset, an :class:`~repro.core.driver.AdaptiveRefinePolicy` for
        coarse-to-fine refinement).  ``sweep_kwargs`` are forwarded to
        :class:`~repro.core.runner.RobustnessSweep` (budget_seconds,
        memory_bytes, jitter, progress, and the content-addressed
        ``cell_store`` / ``store_context`` — see
        :mod:`repro.core.cellstore`).
        """
        from repro.core.runner import RobustnessSweep

        sweep = RobustnessSweep(self.providers(), **sweep_kwargs)
        return sweep.sweep(self, policy=policy)


# ---------------------------------------------------------------------------
# selectivity sweeps over the systems' forced plans
# ---------------------------------------------------------------------------


class _SystemScenario(Scenario):
    """Database systems (sharing one table) as the plan providers."""

    def setup(self) -> None:
        self.systems = self.providers()
        if not self.systems:
            raise ExperimentError("scenario needs at least one system")

    @abstractmethod
    def _query(self, idx: tuple[int, ...]):
        """The cell's query (every system forces its plans for it)."""

    def _plans(self, idx: tuple[int, ...]) -> list[tuple[int, dict]]:
        query = self._query(idx)
        return [
            (s, system.plans_for(query))
            for s, system in enumerate(self.systems)
        ]

    def plan_ids_by_provider(self) -> list[list[str]]:
        return [list(plans) for _s, plans in self._plans((0,) * len(self.axes))]


class _SelectivityScenario(_SystemScenario):
    """Axis 0 sweeps one column's selectivity for the single-predicate
    query; subclasses add a second axis that does not change the query."""

    column: str | None
    """Setting: the swept column (None resolves to the systems' b column)."""

    def setup(self) -> None:
        super().setup()
        reference = self.systems[0]
        self.column = self.column or reference.config.b_column
        builder = PredicateBuilder(reference.table, self.column)
        self._predicates = builder.predicates_for_grid(self.axes[0].targets)
        self._achieved = np.asarray([a for _p, a in self._predicates])
        # Oracle result sizes once per sweep, not per cell: each is a
        # scan of the full column.
        column_values = reference.table.column(self.column)
        self._oracle_rows = [
            int(np.count_nonzero(predicate.mask(column_values)))
            for predicate, _achieved in self._predicates
        ]

    def _query(self, idx: tuple[int, ...]) -> SinglePredicateQuery:
        return SinglePredicateQuery(self._predicates[idx[0]][0])

    def _cell_memory(self, idx: tuple[int, ...]) -> int | None:
        return None

    def _cell_note(self, idx: tuple[int, ...]) -> str:
        return ""

    def cell(self, idx: tuple[int, ...]) -> Cell:
        return Cell(
            expected_rows=self._oracle_rows[idx[0]],
            plans=self._plans(idx),
            memory_bytes=self._cell_memory(idx),
            describe=f"sel={self._achieved[idx[0]]:.2e}" + self._cell_note(idx),
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        return self._achieved if axis == 0 else None


@register_scenario
class SinglePredicateScenario(_SelectivityScenario):
    """1-D selectivity sweep of the single-predicate query (Figs 1-2)."""

    name = "single-predicate"

    @classmethod
    def build_spec(cls, space, column: str | None = None) -> ScenarioSpec:
        """Spec for this scenario without building any systems."""
        return ScenarioSpec.of(
            cls.name, [space], column=column
        )


@register_scenario
class MemorySweepScenario(_SelectivityScenario):
    """Selectivity x memory budget over the systems' forced plans (§4).

    Reuses the single-predicate plan inventory but turns the workspace
    ``memory_bytes`` knob *per cell* instead of per sweep, exposing which
    plans degrade gracefully when their hash/sort workspaces shrink.
    """

    name = "memory-sweep"

    @classmethod
    def build_spec(
        cls, space, memory_targets: Sequence[int], column: str | None = None
    ) -> ScenarioSpec:
        """Spec for this scenario without building any systems."""
        axes = [
            space,
            Space1D("memory_bytes", memory_targets),
        ]
        return ScenarioSpec.of(cls.name, axes, column=column)

    def _cell_memory(self, idx: tuple[int, ...]) -> int:
        return int(self.axes[1].targets[idx[1]])

    def _cell_note(self, idx: tuple[int, ...]) -> str:
        return f" mem={self._cell_memory(idx)}"


@register_scenario
class EstimationErrorScenario(_SelectivityScenario):
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
    error_bias: float
    error_seed: int

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
        axes = [
            space,
            Space1D("error_magnitude", magnitudes),
        ]
        return ScenarioSpec.of(
            cls.name,
            axes,
            column=column,
            error_bias=float(error_bias),
            error_seed=int(error_seed),
        )

    def setup(self) -> None:
        if np.any(self.axes[1].targets < 0):
            raise ExperimentError("error magnitudes must be non-negative")
        super().setup()
        self._estimator = CardinalityEstimator(
            EstimationError(bias=self.error_bias, seed=self.error_seed)
        )
        self._true_cards: dict[int, dict[str, float]] = {}

    def _cell_note(self, idx: tuple[int, ...]) -> str:
        return f" err={self.magnitude(idx):.2f}"

    # ------------------------------------------------------------------
    # the compile-time side
    # ------------------------------------------------------------------

    def magnitude(self, idx: tuple[int, ...]) -> float:
        return float(self.axes[1].targets[idx[1]])

    def true_cards(self, idx: tuple[int, ...]) -> dict[str, float]:
        """Oracle cardinalities of the cell's query (the workload side).

        Delegates to :meth:`DatabaseSystem.true_cards` — the single
        owner of the estimate-key convention — cached per selectivity
        index (the error axis shares the workload).
        """
        i = int(idx[0])
        if i not in self._true_cards:
            self._true_cards[i] = self.systems[0].true_cards(self._query(idx))
        return dict(self._true_cards[i])

    def estimates(self, idx: tuple[int, ...]) -> Estimate:
        """The cell's perturbed estimates (see the determinism contract)."""
        return self._estimator.estimate(
            self.true_cards(idx),
            key=(int(idx[0]),),
            magnitude=self.magnitude(idx),
        )

    def candidate_plans(self, idx: tuple[int, ...]) -> dict[str, PlanNode]:
        """Fresh plan trees the first system's optimizer chooses from."""
        return self.systems[0].plans_for(self._query(idx))


@register_scenario
class TwoPredicateScenario(_SystemScenario):
    """2-D selectivity x selectivity sweep (Figs 4-10)."""

    name = "two-predicate"

    def __init__(self, systems: Sequence, space) -> None:
        self.bind(systems, self.build_spec(space.x, space.y))

    @classmethod
    def build_spec(cls, x, y) -> ScenarioSpec:
        """Spec from the two selectivity axes, without building systems."""
        return ScenarioSpec.of(
            cls.name, [x, y]
        )

    def setup(self) -> None:
        super().setup()
        reference = self.systems[0]
        self.a_column = reference.config.a_column
        self.b_column = reference.config.b_column
        self._preds, self._masks = [], []
        for column, axis in zip((self.a_column, self.b_column), self.axes):
            builder = PredicateBuilder(reference.table, column)
            preds = builder.predicates_for_grid(axis.targets)
            values = reference.table.column(column)
            self._preds.append(preds)
            self._masks.append([pred.mask(values) for pred, _ in preds])

    def _query(self, idx: tuple[int, ...]) -> TwoPredicateQuery:
        ix, iy = idx
        return TwoPredicateQuery(self._preds[0][ix][0], self._preds[1][iy][0])

    def cell(self, idx: tuple[int, ...]) -> Cell:
        ix, iy = idx
        expected = np.count_nonzero(self._masks[0][ix] & self._masks[1][iy])
        return Cell(
            expected_rows=int(expected),
            plans=self._plans(idx),
            describe=f"{ix},{iy}",
        )

    def achieved(self, axis: int) -> np.ndarray | None:
        return np.asarray([a for _p, a in self._preds[axis]])

    def meta_params(self) -> dict:
        return {"a_column": self.a_column, "b_column": self.b_column}


# ---------------------------------------------------------------------------
# §4 dimensions: bare operators over input size and memory
# ---------------------------------------------------------------------------


class OperatorBench:
    """Plan provider for scenarios that run bare operators.

    Hosts a storage environment (virtual clock, disk, temp store) without
    any table or indexes, so operator-level scenarios like
    :class:`SortSpillScenario` get the same cold-cache measurement,
    budget censoring, and jitter machinery as the database systems.
    """

    name = "op"

    def __init__(self) -> None:
        self.env = StorageEnv(DeviceProfile())

    def runner(
        self,
        budget_seconds: float | None = None,
        memory_bytes: int | None = None,
    ) -> PlanRunner:
        return PlanRunner(
            self.env, memory_bytes=memory_bytes, budget_seconds=budget_seconds
        )


def operator_bench_factory() -> list[OperatorBench]:
    """Provider factory for :class:`ParallelSweep`: one fresh bench."""
    return [OperatorBench()]


class _OperatorScenario(Scenario):
    """Bare operators on one :class:`OperatorBench`, inputs drawn from a
    generator keyed only by ``(seed, row count)``."""

    row_bytes: int
    seed: int
    key_domain: int

    def __init__(
        self, provider: OperatorBench | None = None, *layout, **settings
    ) -> None:
        super().__init__([provider or OperatorBench()], *layout, **settings)

    def setup(self) -> None:
        super().setup()
        self._inputs: dict[int, np.ndarray] = {}

    @property
    def provider(self) -> OperatorBench:
        return self.providers()[0]

    def input_values(self, n_rows: int) -> np.ndarray:
        """The deterministic operator input for a given row count.

        Drawn once per scenario and shared by every cell and plan that
        asks; read-only, so an operator that writes into its input fails
        instead of changing the next cell's.
        """
        values = self._inputs.get(n_rows)
        if values is None:
            rng = np.random.default_rng([self.seed, n_rows])
            values = rng.integers(0, self.key_domain, n_rows)
            values.flags.writeable = False
            self._inputs[n_rows] = values
        return values

    def _target(self, axis: int, idx: tuple[int, ...]) -> int:
        return int(self.axes[axis].targets[idx[axis]])

    def _in_memory_seconds(self, node: PlanNode, memory_bytes: int) -> float:
        """One plan measured with room for everything: a budget yardstick."""
        return self.provider.runner(memory_bytes=memory_bytes).measure(node).seconds


@register_scenario
class SortSpillScenario(_OperatorScenario):
    """Input rows x memory budget for the two sort spill policies (§4).

    The two "plans" are the same external sort under
    :attr:`SpillPolicy.ALL_OR_NOTHING` (discontinuous cliff at the
    memory boundary) and :attr:`SpillPolicy.GRACEFUL` (smooth
    degradation) — the paper's predicted robustness contrast.
    """

    name = "sort-spill"
    key_domain = 1 << 30
    _POLICIES = (SpillPolicy.ALL_OR_NOTHING, SpillPolicy.GRACEFUL)

    @classmethod
    def build_spec(
        cls,
        row_targets: Sequence[int],
        memory_targets: Sequence[int],
        row_bytes: int = 128,
        seed: int = 2009,
    ) -> ScenarioSpec:
        """Spec for this scenario without building a bench."""
        axes = [
            Space1D("input_rows", row_targets),
            Space1D("memory_bytes", memory_targets),
        ]
        return ScenarioSpec.of(
            cls.name, axes, row_bytes=int(row_bytes), seed=int(seed)
        )

    def plan_ids_by_provider(self) -> list[list[str]]:
        return [[f"sort.{policy.value}" for policy in self._POLICIES]]

    def baseline_seconds(self) -> float:
        """Cost of the largest input sorted fully in memory.

        A scenario-intrinsic budget yardstick (analogous to the table
        scan for the selectivity sweeps): cost budgets scale off the
        cheapest way to do the most work, so only pathological spill
        blowups get censored.
        """
        n_rows = int(self.axes[0].targets[-1])
        return self._in_memory_seconds(
            ExternalSortNode(
                self.input_values(n_rows),
                row_bytes=self.row_bytes,
                policy=SpillPolicy.GRACEFUL,
            ),
            (n_rows + 1) * self.row_bytes,
        )

    def cell(self, idx: tuple[int, ...]) -> Cell:
        n_rows, memory = self._target(0, idx), self._target(1, idx)
        values = self.input_values(n_rows)
        plans = {
            f"sort.{policy.value}": ExternalSortNode(
                values, row_bytes=self.row_bytes, policy=policy
            )
            for policy in self._POLICIES
        }
        return Cell(
            expected_rows=n_rows,
            plans=[(0, plans)],
            memory_bytes=memory,
            describe=f"rows={n_rows} mem={memory}",
        )


@register_scenario
class JoinScenario(_OperatorScenario):
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

    @classmethod
    def build_spec(
        cls,
        build_targets: Sequence[int],
        probe_targets: Sequence[int],
        memory_targets: Sequence[int] | None = None,
        row_bytes: int = 16,
        key_domain: int = 1 << 16,
        seed: int = 2009,
    ) -> ScenarioSpec:
        """Spec for this scenario without building a bench."""
        axes = [
            Space1D("build_rows", build_targets),
            Space1D("probe_rows", probe_targets),
        ]
        if memory_targets is not None and len(memory_targets):
            axes.append(Space1D("memory_bytes", memory_targets))
        return ScenarioSpec.of(
            cls.name,
            axes,
            row_bytes=int(row_bytes),
            key_domain=int(key_domain),
            seed=int(seed),
        )

    def setup(self) -> None:
        super().setup()
        # The index nested-loop join's B-tree over the build size the
        # sweep is on.  Cells arrive in grid order, build size major (the
        # pool deals whole rows), so one slot loads a build size once per
        # run of cells that share it.
        self._index: tuple[int, JoinIndex] | None = None

    def plan_ids_by_provider(self) -> list[list[str]]:
        return [list(JOIN_PLAN_IDS)]

    def _index_for(self, n_build: int) -> JoinIndex:
        if self._index is None or self._index[0] != n_build:
            self._index = (n_build, JoinIndex(self.input_values(n_build)))
        return self._index[1]

    def baseline_seconds(self) -> float:
        """Cost of merge-joining the largest inputs fully in memory.

        The scenario-intrinsic budget yardstick (compare
        :meth:`SortSpillScenario.baseline_seconds`): budgets scale off
        the cheapest way to do the most work, so only pathological spill
        or probe blowups get censored.
        """
        n_build = int(self.axes[0].targets[-1])
        n_probe = int(self.axes[1].targets[-1])
        return self._in_memory_seconds(
            MergeJoinNode(
                self.input_values(n_build),
                self.input_values(n_probe),
                row_bytes=self.row_bytes,
            ),
            2 * (n_build + n_probe + 2) * self.row_bytes,
        )

    def cell(self, idx: tuple[int, ...]) -> Cell:
        n_build, n_probe = self._target(0, idx), self._target(1, idx)
        build = self.input_values(n_build)
        probe = self.input_values(n_probe)
        memory = self._target(2, idx) if len(self.axes) == 3 else None
        describe = f"build={n_build} probe={n_probe}"
        if memory is not None:
            describe += f" mem={memory}"
        plans = join_plan_inventory(
            build, probe, self.row_bytes, index=self._index_for(n_build)
        )
        return Cell(
            expected_rows=int(join_matches(build, probe).size),
            plans=[(0, plans)],
            memory_bytes=memory,
            describe=describe,
        )
