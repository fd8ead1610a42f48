"""Shared bench session: systems + sweeps, computed once, cached.

Which maps exist, how each one is built, and how requests for them are
addressed lives in :mod:`repro.bench.requests` (the declarative
``MAP_DEFINITIONS`` registry + serializable :class:`MapRequest`); this
module keeps the *session*: lazily-built systems, one entry point for
maps (:meth:`BenchSession.request_map`), thread-safe memoization over the
registry, and the whole-map disk cache.  Which knob values are legal is
``BenchConfig``'s own business (``BenchConfig.__post_init__``).

Scale knobs (environment variables, so CI can dial them):

* ``REPRO_BENCH_ROWS``     — table rows (default 2^17).
* ``REPRO_BENCH_MIN_EXP``  — smallest selectivity exponent for the 1-D
  sweep (default -16, the paper's grid).
* ``REPRO_BENCH_MIN_EXP_2D`` — same for the 2-D grids (default -12; the
  paper used a finer monitor, we default to a 13x13 grid).
* ``REPRO_BENCH_CELL_CACHE`` — directory for the content-addressed
  per-cell measurement store (default: none); it answers reruns,
  overlapping grids and refinement passes.

Worker processes and adaptive refinement are ``BenchConfig`` fields the
CLI's ``--workers`` / ``--refine`` / ``--max-cells`` flags set; they have
no environment twin.

``BenchConfig.cache_dir`` adds a whole-map disk cache that no front door
sets (the benchmark's layer probe times a map load with it).  Its files
are keyed on a fingerprint of the *full* config, so a changed knob that
shapes the map gets a fresh file instead of a stale, wrong-shape map,
and are validated again at load time.  Refined maps are stored raw
(sparse) and densified on the way out, so renderers and analyses see
full grids while ``meta["measured_cells"]`` keeps the coverage honest.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.bench.requests import (  # noqa: F401  (re-exported: public API)
    MAP_DEFINITIONS,
    BenchConfig,
    MapDefinition,
    MapRequest,
    available_requests,
    compute_map,
    definition_for,
)
from repro.core.cellstore import CellStore
from repro.core.choice import ChoiceMap, build_choice_map
from repro.core.driver import AdaptiveRefinePolicy
from repro.core.mapdata import MapData
from repro.core.scenario import build_scenario
from repro.errors import ExperimentError
from repro.optimizer import STANDARD_POLICIES, PlanChooser
from repro.systems import DatabaseSystem, SystemA, build_three_systems

#: Whole-map cache key -> registry entry (stale-file shape validation).
_BY_CACHE_KEY: dict[str, MapDefinition] = {
    definition.cache_key: definition
    for definition in MAP_DEFINITIONS.values()
}


class BenchSession:
    """Builds systems lazily and memoizes the expensive sweeps.

    Memoization is thread-safe: the maps/choices books are guarded by a
    session lock and every cache key additionally gets its own lock, so
    concurrent callers asking for the *same* map (the service's worker
    threads) serialize on that key — one computes, the rest reuse — while
    requests for *different* keys do not block each other's bookkeeping.
    The measurement engines themselves share the session's systems, so
    truly concurrent sweeps should run on separate sessions (the service
    gives every distinct request its own); the locks here make the
    bookkeeping and the disk-cache write safe, not the physics.

    Systems are built as far as their maps read them.  A map over System
    A alone (:attr:`system_a`) builds no System B or C; :attr:`systems`
    builds those two beside it, over the same columns.  Building a
    system lays out no tree and draws no column
    (:func:`~repro.workloads.lineitem.lineitem_columns`): a column is
    drawn at its first read (a predicate, an index's key check), and a
    secondary index is sorted the first time a plan that uses it
    executes; a table's data pages are arithmetic and never laid out
    (:class:`~repro.storage.table.Table`), so the budget yardstick's
    scan reads no column.  A pool's parent makes all of it for the
    providers it forks with, just before the fork
    (:class:`~repro.core.parallel.ParallelSweep`), so workers inherit
    it.  A map answered entirely from the cell store therefore draws
    only its predicate and index-key columns and lays out no tree.

    ``snapshot_every`` threads straight into the sweep engines: every
    N-th measured part of a wave (a cell in-process, a chunk in the
    pool), a wave's last, its store replay and every refinement round,
    the progress stream carries a partial-map snapshot of everything the
    sweep holds so far (see :class:`repro.core.progress.ProgressEvent`).

    ``cell_store`` hands the session an already open
    :class:`~repro.core.cellstore.CellStore` to use instead of opening
    its own on ``config.cell_cache_dir``: whoever runs many sessions in
    one process (the job manager; :meth:`request_map` for its derived
    sessions) owns one store, and its index is read once per process
    instead of once per session.
    """

    def __init__(
        self,
        config: BenchConfig | None = None,
        progress=None,
        snapshot_every: int | None = None,
        cell_store: CellStore | None = None,
    ) -> None:
        self.config = config or BenchConfig()
        self.progress = progress
        self.snapshot_every = snapshot_every
        self._system_a: DatabaseSystem | None = None
        self._systems: dict[str, DatabaseSystem] | None = None
        self._maps: dict[str, MapData] = {}
        self._choices: dict[str, ChoiceMap] = {}
        self._cell_store = cell_store
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._systems_lock = threading.Lock()
        self._choices_lock = threading.Lock()

    def cell_store(self) -> CellStore | None:
        """The session's per-cell measurement store (None: not enabled)."""
        with self._lock:
            if self.config.cell_cache_dir and self._cell_store is None:
                self._cell_store = CellStore(self.config.cell_cache_dir)
            return self._cell_store

    # ------------------------------------------------------------------

    @property
    def systems(self) -> dict[str, DatabaseSystem]:
        """Systems A, B and C; B and C are built beside :attr:`system_a`,
        over its columns."""
        system_a = self.system_a
        with self._systems_lock:
            if self._systems is None:
                self._systems = build_three_systems(
                    self.config.system_config(), system_a=system_a
                )
            return self._systems

    @property
    def system_a(self) -> DatabaseSystem:
        """System A alone: the budget yardstick's system and the 1-D
        maps' only provider."""
        with self._systems_lock:
            if self._system_a is None:
                self._system_a = SystemA(self.config.system_config())
            return self._system_a

    def table_scan_seconds(self) -> float:
        """Cost of one cold table scan (the budget yardstick)."""
        from repro.executor.plans import TableScanNode

        system = self.system_a
        run = system.runner().measure(TableScanNode(system.table, []))
        return run.seconds

    def budget(self) -> float:
        return self.config.budget_scale * self.table_scan_seconds()

    # ------------------------------------------------------------------

    def _grid_shape(self, key: str) -> tuple[int, ...]:
        """Expected grid shape for a cached map (stale-file detection)."""
        try:
            definition = _BY_CACHE_KEY[key]
        except KeyError:
            raise ExperimentError(f"unknown map cache key {key!r}") from None
        return definition.spec(self.config).grid_shape

    def _cache_valid(self, mapdata: MapData, key: str) -> bool:
        """Fingerprint, shape, and *policy* must all match the config.

        A refined (sparse) map must never satisfy a dense config and
        vice versa, even though both carry the same grid shape — the
        policy name in meta is part of the cache contract.
        """
        expected_policy = (
            AdaptiveRefinePolicy.name if self.config.refine else None
        )
        return (
            mapdata.meta.get("config_fingerprint") == self.config.fingerprint()
            and mapdata.grid_shape == self._grid_shape(key)
            and mapdata.meta.get("policy") == expected_policy
            and (self.config.refine or not mapdata.is_partial)
        )

    def _key_lock(self, key: str) -> threading.Lock:
        with self._lock:
            return self._key_locks.setdefault(key, threading.Lock())

    def _cached(self, key: str, compute: Callable[[], MapData]) -> MapData:
        with self._lock:
            if key in self._maps:
                return self._maps[key]
        # Serialize per key: concurrent requests for the same map wait
        # for the first computation instead of racing it (and racing the
        # disk-cache write); other keys proceed independently.
        with self._key_lock(key):
            with self._lock:
                if key in self._maps:
                    return self._maps[key]
            path = self.config.cache_path(key)
            mapdata: MapData | None = None
            if path is not None and path.exists():
                loaded = MapData.load(path)
                if self._cache_valid(loaded, key):
                    mapdata = loaded
            if mapdata is None:
                mapdata = compute()
                mapdata.meta["config_fingerprint"] = self.config.fingerprint()
                if path is not None:
                    mapdata.save(path)  # refined maps cached raw (sparse)
            if mapdata.is_partial:
                # Renderers and analyses see the full-grid interpolation
                # view; meta["measured_cells"] keeps the coverage honest.
                mapdata = mapdata.densify()
            with self._lock:
                self._maps[key] = mapdata
            return mapdata

    # ------------------------------------------------------------------
    # the registry-backed map surface
    # ------------------------------------------------------------------

    def request_map(self, request: MapRequest) -> MapData:
        """Compute (or load) the map a serializable request addresses.

        A request resolving to this session's own config runs (and
        memoizes) right here; knob overrides get a derived session so
        the providers match the overridden scale.
        """
        definition = definition_for(request.scenario)
        resolved = request.resolve(self.config)
        session = self
        if resolved != self.config:
            session = BenchSession(
                resolved,
                progress=self.progress,
                snapshot_every=self.snapshot_every,
                cell_store=self.cell_store(),
            )
        return session._cached(
            definition.cache_key, lambda: compute_map(session, definition)
        )

    # ------------------------------------------------------------------
    # the optimizer's scenario: choice and regret maps
    # ------------------------------------------------------------------

    def choice_maps(self) -> dict[str, ChoiceMap]:
        """:func:`choice_maps_for` this session's estimation map, memoized."""
        with self._choices_lock:
            if not self._choices:
                self._choices = choice_maps_for(
                    self.config,
                    self.system_a,
                    self.request_map(MapRequest("estimation")),
                )
            return dict(self._choices)

    def system_a_plan_ids(self) -> list[str]:
        """The 7 System A plan ids of the two-predicate query (Fig 7)."""
        mapdata = self.request_map(MapRequest("two_predicate"))
        return [plan_id for plan_id in mapdata.plan_ids if plan_id.startswith("A.")]


def choice_maps_for(
    config: BenchConfig, system_a: DatabaseSystem, mapdata: MapData
) -> dict[str, ChoiceMap]:
    """One choice/regret map per standard selection policy over a
    measured estimation map.

    Every cell's choice is computed from that cell's true cardinalities
    perturbed by the deterministic error model, under System A's cost
    model; regret divides the chosen plan's measured time by the
    measured best (``best_times`` over the full inventory).
    Deterministic end to end: same config, same maps — serial or
    parallel, cached or recomputed.
    """
    scenario = build_scenario(definition_for("estimation").spec(config), [system_a])
    model = system_a.cost_model(memory_bytes=config.memory_bytes)
    choosers = [PlanChooser(model, policy_type()) for policy_type in STANDARD_POLICIES]
    picks: dict[tuple[int, ...], dict[str, str]] = {}

    def pick(idx: tuple[int, ...]) -> dict[str, str]:
        """Every policy's choice at a cell: one candidate set, one
        estimate and one cost memo between them."""
        if idx not in picks:
            plans = scenario.candidate_plans(idx)
            estimate = scenario.estimates(idx)
            costs: dict = {}
            picks[idx] = {
                chooser.policy.name: chooser.choose(plans, estimate, costs)
                for chooser in choosers
            }
        return picks[idx]

    return {
        chooser.policy.name: build_choice_map(
            mapdata,
            chooser.policy.name,
            lambda idx, name=chooser.policy.name: pick(idx)[name],
        )
        for chooser in choosers
    }
