"""Declarative map requests: every bench map, addressable by value.

Every map a :class:`~repro.bench.harness.BenchSession` can produce is
data — a scenario spec plus the set of providers that runs it — so a map
can be *named*, and therefore deduplicated, queued, and cached:

* :class:`BenchConfig` — the scale knobs of a session (``harness``
  re-exports it).
* :class:`ProviderSet` — who runs a map's plans: System A alone, all
  three systems, or a bare operator bench; each names the live
  providers a session shares (pool workers inherit them) and a factory
  of a fresh set for callers without a session.
* :class:`MapDefinition` — one registry entry per producible map: its
  spec under a config, its provider set, its budget and memory
  yardsticks, its jitter, and its whole-map cache key.  The scenario
  and the provider factory are derived from those.
* :data:`MAP_DEFINITIONS` — the registry.  The two-predicate map's
  jittered and jitter-free variants are distinct entries (and distinct
  cache keys).
* :class:`MapRequest` — a *serializable* request: a registry name plus
  :class:`BenchConfig` knob overrides.  ``resolve`` turns it into a
  concrete config, ``fingerprint`` into a stable content address (the
  map service's job id and single-flight dedup key), ``to_dict`` /
  ``from_dict`` into/out of plain JSON.
* :func:`compute_map` — the one generic compute path (serial or
  parallel, cell store, refinement policy, snapshots) that every
  definition runs through.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.driver import AdaptiveRefinePolicy
from repro.core.mapdata import MapData
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D, Space2D
from repro.core.runner import Jitter
from repro.core.scenario import (
    EstimationErrorScenario,
    JoinScenario,
    MemorySweepScenario,
    Scenario,
    ScenarioSpec,
    SinglePredicateScenario,
    SortSpillScenario,
    TwoPredicateScenario,
    build_scenario,
    operator_bench_factory,
)
from repro.errors import ExperimentError
from repro.obs.tracer import tracing_requested
from repro.systems import DatabaseSystem, SystemConfig, build_three_systems
from repro.workloads import LineitemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, harness imports us
    from repro.bench.harness import BenchSession


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name, default)
    try:
        return int(text)
    except ValueError:
        raise ExperimentError(f"{name} must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class BenchConfig:
    """Scale parameters for one bench session."""

    n_rows: int = field(default_factory=lambda: _env_int("REPRO_BENCH_ROWS", 1 << 17))
    min_exp_1d: int = field(default_factory=lambda: _env_int("REPRO_BENCH_MIN_EXP", -16))
    min_exp_2d: int = field(default_factory=lambda: _env_int("REPRO_BENCH_MIN_EXP_2D", -12))
    seed: int = 42
    pool_pages: int = 256
    budget_scale: float = 50.0
    """Cost budget = budget_scale x the table-scan cost (censors blowups)."""

    memory_bytes: int = 4 << 20
    """Workspace memory per plan (bounded, so large builds spill)."""

    sort_rows: tuple = (2048, 4096, 8192, 16384, 24576, 32768)
    """Input-size axis of the sort-spill scenario (rows)."""

    sort_memory: tuple = (256 << 10, 512 << 10, 1 << 20, 2 << 20)
    """Memory axis of the sort-spill scenario (bytes per cell)."""

    sort_row_bytes: int = 128
    """Row width assumed by the sort-spill scenario."""

    memory_axis: tuple = (16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)
    """Per-cell workspace budgets of the memory-sweep scenario (bytes)."""

    join_rows: tuple = (512, 1024, 2048, 4096, 8192)
    """Both input-cardinality axes of the join scenario (square grid, so
    the merge-join symmetry landmark is well defined)."""

    join_memory_bytes: int = 64 << 10
    """Workspace per join measurement (tight: large builds must spill)."""

    join_row_bytes: int = 16
    """Row width assumed by the join scenario."""

    join_key_domain: int = 1 << 16
    """Join key domain (controls match density and output sizes)."""

    error_magnitudes: tuple = (0.0, 0.5, 1.0, 2.0, 3.0)
    """Error axis of the estimation scenario (std dev of ln q per cell).
    The top magnitude allows order-of-magnitude misestimates — the regime
    where plan choice actually flips."""

    error_bias: float = 0.0
    """Systematic ln-q bias of the estimation error model."""

    error_seed: int = 2009
    """Seed of the estimation error model (fingerprinted, like all of
    these knobs, so choice/regret caches can never mix error models)."""

    refine: bool = False
    """Sweep adaptively (coarse-to-fine refinement) instead of densely."""

    refine_max_cells: int = 0
    """Refinement cell budget per sweep (0: refine until nothing is
    interesting; the budget spends itself cliffs-first)."""

    n_workers: int = 0
    """Sweep worker processes (0/1: serial, -1: all cores)."""

    cache_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_BENCH_CACHE")
    )

    cell_cache_dir: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_BENCH_CELL_CACHE")
    )
    """Directory of the content-addressed per-cell measurement store
    (default: none).  Unlike ``cache_dir`` (whole-map, all-or-nothing),
    the cell store survives grid-resolution changes and refinement
    reruns — only the overlapping cells hit."""

    trace: bool = field(
        default_factory=lambda: tracing_requested(os.environ)
    )
    """Capture per-cell execution profiles (sim-time span trees; see
    :mod:`repro.obs`) while sweeping.  Default from ``REPRO_TRACE``.
    Spans observe charging but never alter it, so this knob cannot
    change any measured value — it is excluded from the fingerprint and
    the cell-store context, like worker counts and cache locations."""

    #: Knobs that cannot change any *individual* cell measurement: cache
    #: locations, worker counts, the grid/axis layouts (cell coordinates
    #: are part of each cell's key), and the cell policy.  Everything
    #: else lands in :meth:`cell_store_context` — exclusion-based, so a
    #: future knob defaults into the context (a false miss re-measures;
    #: a false hit would corrupt maps silently).
    _CELL_CONTEXT_EXCLUDED = frozenset(
        {
            "n_workers",
            "cache_dir",
            "cell_cache_dir",
            "trace",
            "min_exp_1d",
            "min_exp_2d",
            "sort_rows",
            "sort_memory",
            "memory_axis",
            "join_rows",
            "error_magnitudes",
            "refine",
            "refine_max_cells",
        }
    )

    #: Smallest legal value per knob (of every entry, for an axis knob).
    _FLOORS = {
        "n_rows": 1,
        "seed": 0,
        "pool_pages": 1,
        "memory_bytes": 1,
        "sort_memory": 1,
        "sort_row_bytes": 1,
        "memory_axis": 1,
        "join_memory_bytes": 1,
        "join_row_bytes": 1,
        "join_key_domain": 1,
        "refine_max_cells": 0,
        "n_workers": -1,
    }

    #: Largest legal value per knob: a grid starts at or below 2^0.
    _CEILINGS = {"min_exp_1d": 0, "min_exp_2d": 0}

    def __post_init__(self) -> None:
        """Knob legality, decided here for every front door.

        A flag, an environment default and a request override all become
        a config before anything runs, so an illegal value is a usage
        error or a 400 naming the knob, not a job that dies in its worker
        or finishes with every plan censored.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if any(isinstance(n, float) and not math.isfinite(n) for n in numbers):
                legal = "finite"
            elif f.name in self._FLOORS and min(numbers) < self._FLOORS[f.name]:
                legal = f"at least {self._FLOORS[f.name]}"
            elif f.name in self._CEILINGS and value > self._CEILINGS[f.name]:
                legal = f"at most {self._CEILINGS[f.name]}"
            elif f.name == "budget_scale" and value <= 0:
                legal = "positive"
            else:
                continue
            raise ExperimentError(f"knob {f.name!r} must be {legal}, got {value!r}")

    def _knob_digest(self, excluded: frozenset) -> str:
        payload = repr(
            [
                (f.name, getattr(self, f.name))
                for f in fields(self)
                if f.name not in excluded
            ]
        ).encode("utf-8")
        return hashlib.blake2s(payload, digest_size=8).hexdigest()

    def fingerprint(self) -> str:
        """Digest over every result-shaping knob (not workers/caches).

        Worker count and cache locations cannot change the measured map —
        the parallel engine is bit-identical — so they stay out of the
        fingerprint and do not invalidate caches.
        """
        return self._knob_digest(
            frozenset({"n_workers", "cache_dir", "cell_cache_dir", "trace"})
        )

    def cell_store_context(self) -> str:
        """The opaque context string folded into every cell-store key.

        The :meth:`fingerprint` discipline minus grid-shape and policy
        knobs: it covers what shapes the providers and measurements
        *outside* the scenario specs (table rows and seed, buffer-pool
        pages, budgets, ...), so overlapping grids and refinement reruns
        of the same session configuration all hit.
        """
        return self._knob_digest(self._CELL_CONTEXT_EXCLUDED)

    def system_config(self) -> SystemConfig:
        """The table and buffer pool every bench system is built over."""
        return SystemConfig(
            lineitem=LineitemConfig(n_rows=self.n_rows, seed=self.seed),
            pool_pages=self.pool_pages,
        )

    def cache_path(self, key: str) -> Path | None:
        if not self.cache_dir:
            return None
        directory = Path(self.cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return (
            directory
            / f"{key}_rows{self.n_rows}_seed{self.seed}_{self.fingerprint()}.json"
        )


def _session_systems(config: BenchConfig) -> list[DatabaseSystem]:
    """Build the three bench systems for a config."""
    return list(build_three_systems(config.system_config()).values())


def _session_system_a(config: BenchConfig) -> list[DatabaseSystem]:
    """System A alone (the 1-D sweeps)."""
    from repro.systems.system_a import SystemA

    return [SystemA(config.system_config())]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProviderSet:
    """Who runs a map's plans, in the two forms the engines need."""

    live: Callable[["BenchSession"], list]
    """The session's own (shared, lazily built) providers: every sweep
    :func:`compute_map` runs, serial or pool (pool workers inherit them)."""

    factory: Callable[[BenchConfig], Callable[[], list]]
    """A zero-argument factory of a fresh provider set, for a caller with
    a config and no session (called once; its result is never shared)."""


SYSTEM_A = ProviderSet(
    live=lambda session: [session.system_a],
    factory=lambda config: partial(_session_system_a, config),
)
THREE_SYSTEMS = ProviderSet(
    live=lambda session: list(session.systems.values()),
    factory=lambda config: partial(_session_systems, config),
)
OPERATOR_BENCH = ProviderSet(
    live=lambda session: operator_bench_factory(),
    factory=lambda config: operator_bench_factory,
)


@dataclass(frozen=True)
class MapDefinition:
    """Everything needed to produce one named map from a config.

    A definition is a spec plus a provider set; :meth:`scenario` (bound
    to a live session's providers) and :meth:`factory` (a fresh provider
    set from a config alone) follow from those two; the grid's shape is
    the spec's.  The budget and memory yardsticks default to what the
    selectivity maps use.  :func:`compute_map` is the single execution
    path over them.
    """

    name: str
    """Registry/request name (``MapRequest.scenario``)."""

    cache_key: str
    """Whole-map disk-cache key."""

    description: str
    """One line for the service's scenario listing."""

    spec: Callable[[BenchConfig], ScenarioSpec]
    providers: ProviderSet
    budget: Callable[["BenchSession"], float] = lambda session: session.budget()
    memory_bytes: Callable[[BenchConfig], int | None] = (
        lambda config: config.memory_bytes
    )
    jitter: Callable[[BenchConfig], Jitter | None] = lambda config: None

    def scenario(self, session: "BenchSession") -> Scenario:
        """The scenario bound to a live session's providers."""
        return build_scenario(
            self.spec(session.config), self.providers.live(session)
        )

    def factory(self, config: BenchConfig) -> Callable[[], list]:
        """Provider factory for a :class:`ParallelSweep` built without a
        session."""
        return self.providers.factory(config)


def _space_2d_sel(config: BenchConfig) -> Space1D:
    return Space1D.log2("selectivity", config.min_exp_2d)


def _two_predicate_spec(config: BenchConfig) -> ScenarioSpec:
    space = Space2D.log2("sel_a", "sel_b", config.min_exp_2d)
    return TwoPredicateScenario.build_spec(space.x, space.y)


def _two_predicate_jitter(config: BenchConfig) -> Jitter:
    return Jitter(rel=0.01, abs=0.0005, seed=config.seed)


def _sort_spec(config: BenchConfig) -> ScenarioSpec:
    return SortSpillScenario.build_spec(
        config.sort_rows,
        config.sort_memory,
        row_bytes=config.sort_row_bytes,
        seed=config.seed,
    )


def _join_spec(config: BenchConfig) -> ScenarioSpec:
    return JoinScenario.build_spec(
        config.join_rows,
        config.join_rows,
        row_bytes=config.join_row_bytes,
        key_domain=config.join_key_domain,
        seed=config.seed,
    )


def _baseline_budget(
    spec: Callable[[BenchConfig], ScenarioSpec],
) -> Callable[["BenchSession"], float]:
    """Budget yardstick intrinsic to an operator scenario (no systems
    needed): budget_scale x its largest fully-in-memory run."""

    def budget(session: "BenchSession") -> float:
        scenario = build_scenario(spec(session.config), operator_bench_factory())
        return session.config.budget_scale * scenario.baseline_seconds()

    return budget


#: Request name -> definition.  The two-predicate map's jittered and
#: jitter-free variants are distinct addressable entries (and distinct
#: cache keys); ``single_predicate`` runs System A alone while
#: ``two_predicate*`` runs all three systems.
MAP_DEFINITIONS: dict[str, MapDefinition] = {
    definition.name: definition
    for definition in (
        MapDefinition(
            name="single_predicate",
            cache_key="single_predicate",
            description=(
                "1-D selectivity sweep over System A's 7 single-"
                "predicate plans (Figs 1-2)"
            ),
            spec=lambda config: SinglePredicateScenario.build_spec(
                Space1D.log2("selectivity", config.min_exp_1d)
            ),
            providers=SYSTEM_A,
        ),
        MapDefinition(
            name="two_predicate",
            cache_key="two_predicate",
            description=(
                "2-D selectivity sweep over all 15 plans of systems "
                "A, B, C with deterministic jitter (Figs 4-10)"
            ),
            spec=_two_predicate_spec,
            providers=THREE_SYSTEMS,
            jitter=_two_predicate_jitter,
        ),
        MapDefinition(
            name="two_predicate_nojitter",
            cache_key="two_predicate_nojitter",
            description=(
                "the two-predicate sweep without measurement jitter "
                "(exact cost surfaces)"
            ),
            spec=_two_predicate_spec,
            providers=THREE_SYSTEMS,
        ),
        MapDefinition(
            name="sort_spill",
            cache_key="scenario_sort_spill",
            description=(
                "input rows x memory for the two sort spill policies (§4)"
            ),
            spec=_sort_spec,
            providers=OPERATOR_BENCH,
            budget=_baseline_budget(_sort_spec),
            memory_bytes=lambda config: None,
        ),
        MapDefinition(
            name="memory_sweep",
            cache_key="scenario_memory_sweep",
            description=(
                "selectivity x per-cell memory budget over System A's plans"
            ),
            spec=lambda config: MemorySweepScenario.build_spec(
                _space_2d_sel(config), config.memory_axis
            ),
            providers=SYSTEM_A,
        ),
        MapDefinition(
            name="join",
            cache_key="scenario_join",
            description=(
                "build rows x probe rows over the four join plans "
                "(Figs 4-5; merge symmetric, hash spill cliffs)"
            ),
            spec=_join_spec,
            providers=OPERATOR_BENCH,
            budget=_baseline_budget(_join_spec),
            memory_bytes=lambda config: config.join_memory_bytes,
        ),
        MapDefinition(
            name="estimation",
            cache_key="scenario_estimation",
            description=(
                "selectivity x estimation-error magnitude over System "
                "A's plans (choice/regret substrate)"
            ),
            spec=lambda config: EstimationErrorScenario.build_spec(
                _space_2d_sel(config),
                config.error_magnitudes,
                error_bias=config.error_bias,
                error_seed=config.error_seed,
            ),
            providers=SYSTEM_A,
        ),
    )
}


def available_requests() -> list[str]:
    """Every registry name a :class:`MapRequest` may address."""
    return sorted(MAP_DEFINITIONS)


def definition_for(name: str) -> MapDefinition:
    """Look up a registry entry; accepts the CLI's ``-``/``_`` spellings."""
    try:
        return MAP_DEFINITIONS[name.replace("-", "_")]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; available: {available_requests()}"
        ) from None


# ---------------------------------------------------------------------------
# serializable requests
# ---------------------------------------------------------------------------

#: Session-infrastructure knobs a request must not override: where caches
#: live and how many worker processes run are the *service operator's*
#: decisions, never the remote caller's (and none of them shape results).
BLOCKED_OVERRIDES = frozenset({"cache_dir", "cell_cache_dir", "n_workers"})


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce_override(name: str, value: object, current: object) -> object:
    """Adapt a JSON-shaped override value to the config field it targets.

    JSON has no tuples and only one number type, so lists coerce to
    tuples where the field holds a tuple and integral floats coerce to
    ints where the field holds an int.  A value of the wrong kind for
    the field (judged by the field's current value) raises
    :class:`ExperimentError` naming the knob, so a request is refused
    when it is submitted instead of failing inside the sweep.
    """
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif isinstance(current, int):
        if _is_number(value) and float(value).is_integer():
            return int(value)
        expected = "an integer"
    elif isinstance(current, float):
        if _is_number(value):
            return value
        expected = "a number"
    else:  # a tuple: every overridable knob is one of these four kinds
        if (
            isinstance(value, (list, tuple))
            and value
            and all(_is_number(item) for item in value)
        ):
            return tuple(value)
        expected = "a non-empty list of numbers"
    raise ExperimentError(f"knob {name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class MapRequest:
    """A serializable address for one map: registry name + knob overrides.

    ``overrides`` are :class:`BenchConfig` field overrides, normalized to
    a sorted tuple of pairs so requests hash and compare by value.  Two
    requests that resolve to the same (scenario, config-fingerprint) are
    the *same* request — same cache entry, same service job.
    """

    scenario: str
    overrides: tuple = ()

    def __post_init__(self) -> None:
        # Unknown names fail at build time; "sort-spill" and "sort_spill"
        # are one request (one job id, one dedup slot).
        object.__setattr__(
            self, "scenario", definition_for(self.scenario).name
        )
        items = (
            self.overrides.items()
            if isinstance(self.overrides, Mapping)
            else self.overrides
        )
        normalized = tuple(
            sorted(
                (str(k), tuple(v) if isinstance(v, list) else v)
                for k, v in items
            )
        )
        seen = [k for k, _v in normalized]
        if len(set(seen)) != len(seen):
            raise ExperimentError(f"duplicate override knobs: {seen}")
        object.__setattr__(self, "overrides", normalized)

    def resolve(self, base: BenchConfig) -> BenchConfig:
        """The concrete config this request asks for, on top of ``base``.

        Unknown or blocked knob names raise :class:`ExperimentError`
        (the service maps that to a 400, not a 500).
        """
        known = {f.name: getattr(base, f.name) for f in fields(base)}
        changes: dict = {}
        for name, value in self.overrides:
            if name in BLOCKED_OVERRIDES:
                raise ExperimentError(
                    f"knob {name!r} is operator-controlled and cannot be "
                    "overridden by a request"
                )
            if name not in known:
                raise ExperimentError(
                    f"unknown config knob {name!r}; overridable: "
                    f"{sorted(set(known) - BLOCKED_OVERRIDES)}"
                )
            changes[name] = _coerce_override(name, value, known[name])
        return replace(base, **changes) if changes else base

    def fingerprint(self, base: BenchConfig) -> str:
        """Stable content address of (scenario, resolved config).

        This is the map service's job id and single-flight dedup key:
        concurrent requests with equal fingerprints share one
        computation, and differently-spelled overrides that resolve to
        the same config collapse to the same address.
        """
        payload = repr(
            (self.scenario, self.resolve(base).fingerprint())
        ).encode("utf-8")
        digest = hashlib.blake2s(payload, digest_size=8).hexdigest()
        return f"{self.scenario}-{digest}"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "overrides": {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.overrides
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MapRequest":
        """Parse a request from JSON-shaped data, loudly.

        Unknown top-level keys raise — a typoed ``"overides"`` must not
        silently compute the default map.
        """
        if not isinstance(data, Mapping):
            raise ExperimentError(
                f"map request must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"scenario", "overrides"}
        if unknown:
            raise ExperimentError(
                f"unknown request keys {sorted(unknown)}; "
                "expected 'scenario' and optional 'overrides'"
            )
        if "scenario" not in data:
            raise ExperimentError("map request needs a 'scenario' name")
        overrides = data.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise ExperimentError(
                "request 'overrides' must be an object of knob: value"
            )
        return cls(scenario=str(data["scenario"]), overrides=dict(overrides))


# ---------------------------------------------------------------------------
# the one compute path
# ---------------------------------------------------------------------------


def compute_map(session: "BenchSession", definition: MapDefinition) -> MapData:
    """Run one definition's sweep under a session's configuration.

    The single execution path behind every registry entry: picks serial
    vs. parallel from the config — both sweep the session's live
    providers, which pool workers inherit — and threads the refinement
    policy, the content-addressed cell store, progress, and partial-map
    snapshots through either engine.
    """
    config = session.config
    store = session.cell_store()
    policy = (
        AdaptiveRefinePolicy(max_cells=config.refine_max_cells or None)
        if config.refine
        else None
    )
    sweep_kwargs = dict(
        budget_seconds=definition.budget(session),
        memory_bytes=definition.memory_bytes(config),
        jitter=definition.jitter(config),
        progress=session.progress,
        snapshot_every=session.snapshot_every,
        capture_profiles=config.trace,
        cell_store=store,
        store_context="" if store is None else config.cell_store_context(),
    )
    if config.n_workers == -1 or config.n_workers > 1:
        engine = ParallelSweep(
            partial(definition.providers.live, session),
            n_workers=config.n_workers,
            **sweep_kwargs,
        )
        return engine.sweep(definition.spec(config), policy=policy)
    return definition.scenario(session).run(policy=policy, **sweep_kwargs)
