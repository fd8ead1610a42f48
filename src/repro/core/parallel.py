"""Parallel, incremental sweep engine.

Robustness maps are embarrassingly parallel: every cell is an independent
cold-cache measurement on a private virtual clock.  :class:`ParallelSweep`
is the process-pool front door of the wave-based
:class:`~repro.core.driver.SweepDriver`, which runs each wave the same
way as for the in-process engine: this engine partitions the wave into
store hits and misses (``lookup_cells``, at the call site the benchmark
patches), the driver replays the hits through the in-process engine's
:meth:`~repro.core.runner.RobustnessSweep.replay_part`, splits the
misses into about four contiguous chunks per worker, folds each chunk
part into the sweep's arrays as it lands — so the map is independent of
completion order *by construction* — and emits every progress event;
this engine measures the chunks on a
:class:`~concurrent.futures.ProcessPoolExecutor` and writes each part
back (``records_from_part``, also patched where it is called).

Workers dispatch on a picklable :class:`ScenarioSpec` — any registered
scenario (selectivity sweeps, memory sweeps, sort-spill grids, ...)
parallelizes through the same engine.  Because each worker rebuilds its
providers from the same deterministic factory and the jitter digest is
process-independent, the map is **bit-identical** to the serial
sweep — times, aborted flags, rows, and meta all match, regardless of
worker count or refinement policy.

Workers build their providers once (in the pool initializer) and amortize
that cost over every chunk of every wave they process — a multi-round
adaptive refinement reuses the same pool across rounds instead of
re-spawning per round.  ``n_workers <= 1`` falls back to a plain
in-process :class:`RobustnessSweep`, so callers can thread a single knob
through without branching.

The provider ``factory`` must be picklable (a module-level function or
:class:`functools.partial`) so the engine also works under the ``spawn``
start method.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterator, Sequence

from repro.core.cellstore import CellStore, lookup_cells, records_from_part
from repro.core.driver import CellPolicy, DenseGridPolicy, Hits, SweepDriver
from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import Scenario, ScenarioSpec, build_scenario

ProviderFactory = Callable[[], Sequence]

#: Chunks a wave's misses split into per worker: load balance without
#: drowning in IPC.
CHUNKS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# worker side: providers + sweep built once, scenarios rebuilt per spec
# ---------------------------------------------------------------------------

_WORKER_SWEEP: RobustnessSweep | None = None
_WORKER_SCENARIO: tuple[ScenarioSpec, Scenario, list[str]] | None = None


def _init_worker(factory: ProviderFactory, sweep_kwargs: dict) -> None:
    global _WORKER_SWEEP, _WORKER_SCENARIO
    _WORKER_SWEEP = RobustnessSweep(list(factory()), **sweep_kwargs)
    _WORKER_SCENARIO = None


def _run_chunk(spec: ScenarioSpec, cells: list[int]) -> MapData:
    """Measure one chunk into a part.

    The scenario (and its plan ids) is memoized per worker across
    chunks: rebuilding predicates and oracle masks per chunk would repeat
    work the serial path does once.  A pool only ever runs one sweep
    (each :meth:`ParallelSweep.sweep` call creates its own executor), so
    a single slot suffices.
    """
    global _WORKER_SCENARIO
    assert _WORKER_SWEEP is not None, "worker pool not initialized"
    if _WORKER_SCENARIO is None or _WORKER_SCENARIO[0] != spec:
        scenario = build_scenario(spec, _WORKER_SWEEP.systems)
        _WORKER_SCENARIO = (spec, scenario, _WORKER_SWEEP.plan_ids(scenario))
    _spec, scenario, plan_ids = _WORKER_SCENARIO
    part, _describe = _WORKER_SWEEP.measure_part(scenario, plan_ids, cells)
    return part


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


class _LazyPool:
    """Worker pool created on first dispatch, sized to that dispatch.

    A fully store-warm sweep never spawns a single process; a mostly-warm
    one spawns only as many workers as its first miss batch needs
    (initializers are the expensive part: each worker rebuilds the full
    provider set).
    """

    def __init__(self, make: Callable[[int], ProcessPoolExecutor]) -> None:
        self._make = make
        self.pool: ProcessPoolExecutor | None = None

    def get(self, n_tasks: int) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = self._make(n_tasks)
        return self.pool

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


class ParallelSweep:
    """Chunked multi-process front end for :class:`RobustnessSweep`.

    Parameters mirror :class:`RobustnessSweep`, plus:

    * ``factory`` — zero-argument picklable callable returning the plan
      providers to sweep (each worker calls it once).
    * ``n_workers`` — process count; ``0``/``1`` runs serially in-process,
      ``-1`` uses ``os.cpu_count()``.  A wave's misses split into
      :data:`CHUNKS_PER_WORKER` chunks per worker.
    * ``progress`` — receives one :class:`ProgressEvent` per finished
      chunk (and per refinement round, under a multi-round policy).
    * ``cell_store`` / ``store_context`` — the content-addressed
      per-cell measurement store (see :mod:`repro.core.cellstore`).
      Store access stays in the parent process: every wave is
      partitioned into hits (replayed in-process, never dispatched) and
      misses (measured by workers, written back by the parent), and the
      pool is created lazily, sized to the first miss batch — a fully
      warm sweep spawns no workers at all.
    """

    def __init__(
        self,
        factory: ProviderFactory,
        budget_seconds: float | None = None,
        memory_bytes: int | None = None,
        jitter: Jitter | None = None,
        n_workers: int = 0,
        progress: Callable[[ProgressEvent], None] | None = None,
        cell_store: CellStore | None = None,
        store_context: str = "",
        snapshot_every: int | None = None,
        capture_profiles: bool = False,
    ) -> None:
        self.factory = factory
        # Workers never receive the store (the parent owns all reads and
        # writes), nor progress or snapshots (the driver emits those).
        # capture_profiles travels to the workers: profiles are plain
        # dicts in part meta, so they pickle back with the part.
        self.sweep_kwargs = {
            "budget_seconds": budget_seconds,
            "memory_bytes": memory_bytes,
            "jitter": jitter,
            "capture_profiles": capture_profiles,
        }
        self.n_workers = n_workers
        self.progress = progress or (lambda event: None)
        self.cell_store = cell_store
        self.store_context = store_context
        self.snapshot_every = snapshot_every
        self._serial: RobustnessSweep | None = None

    # ------------------------------------------------------------------

    def resolved_workers(self) -> int:
        if self.n_workers == -1:
            return max(1, os.cpu_count() or 1)
        return max(1, self.n_workers)

    def _serial_sweep(self) -> RobustnessSweep:
        if self._serial is None:
            self._serial = RobustnessSweep(
                list(self.factory()),
                progress=self.progress,
                cell_store=self.cell_store,
                store_context=self.store_context,
                snapshot_every=self.snapshot_every,
                **self.sweep_kwargs,
            )
        return self._serial

    # ------------------------------------------------------------------
    # the generic spec sweep
    # ------------------------------------------------------------------

    def sweep(
        self,
        spec: ScenarioSpec,
        policy: CellPolicy | None = None,
    ) -> MapData:
        """Fan a policy's waves out over workers; bit-identical to serial.

        ``spec`` (see :meth:`Scenario.spec`) travels to the workers in
        place of the scenario object itself, which may hold gigabytes of
        table data; each worker rebuilds the scenario from its
        factory-built providers.  The worker pool is created once and
        reused across every wave the ``policy`` proposes (the default
        dense policy has exactly one wave: the full grid).
        """
        workers = self.resolved_workers()
        if workers <= 1 or spec.n_cells < 2:
            serial = self._serial_sweep()
            scenario = build_scenario(spec, serial.systems)
            return serial.sweep(scenario, policy=policy)

        store = self.cell_store
        parent = scenario = plan_ids = keyer = None  # no store: never read
        if store is not None:
            # Parent-side scenario, over the serial fallback's providers:
            # keys, hit replay and write-back happen here, never in a
            # worker.
            parent = self._serial_sweep()
            scenario = build_scenario(spec, parent.systems)
            plan_ids = parent.plan_ids(scenario)
            keyer = parent.store_keyer(scenario)

        def lookup(wave: list[int]) -> Hits | None:
            if store is None:
                return None
            return lookup_cells(store, keyer, plan_ids, wave, spec.grid_shape)

        def write_back(part: MapData) -> None:
            if store is not None:
                store.put_many(records_from_part(keyer, part))

        lazy = _LazyPool(
            lambda n_tasks: ProcessPoolExecutor(
                max_workers=min(workers, n_tasks),
                initializer=_init_worker,
                initargs=(self.factory, self.sweep_kwargs),
            )
        )
        try:
            return SweepDriver(
                spec.grid_shape,
                policy or DenseGridPolicy(),
                scenario=spec.name,
                lookup=lookup,
                replay=lambda hits: parent.replay_part(
                    scenario, plan_ids, keyer, hits
                ),
                measure=lambda parts: _measure(lazy, spec, parts),
                write_back=write_back,
                chunks=workers * CHUNKS_PER_WORKER,
                progress=self.progress,
                snapshot_every=self.snapshot_every,
            ).run()
        finally:
            lazy.shutdown()


def _measure(
    lazy: _LazyPool, spec: ScenarioSpec, parts: list[list[int]]
) -> Iterator[tuple[MapData, str]]:
    """Chunk parts measured by the pool, in the order they finish.  A
    wave with nothing to measure touches the pool not at all."""
    if not parts:
        return
    pool = lazy.get(len(parts))
    futures = [pool.submit(_run_chunk, spec, cells) for cells in parts]
    for future in as_completed(futures):
        yield future.result(), ""
