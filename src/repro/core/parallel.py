"""Parallel, incremental sweep engine.

Robustness maps are embarrassingly parallel: every cell is an independent
cold-cache measurement on a private virtual clock.  This module fans
waves of flat cell indices — proposed by a
:class:`~repro.core.driver.CellPolicy` through the shared
:class:`~repro.core.driver.SweepDriver` — out over a
:class:`~concurrent.futures.ProcessPoolExecutor` in chunks, and merges
the per-chunk partial :class:`MapData` results.  Chunk parts are sorted
by cell index before merging, so the map is independent of completion
order *by construction*, not just by luck of scheduling.

Workers dispatch on a picklable :class:`ScenarioSpec` — any registered
scenario (selectivity sweeps, memory sweeps, sort-spill grids, ...)
parallelizes through the same engine.  Because each worker rebuilds its
providers from the same deterministic factory and the jitter digest is
process-independent, the merged map is **bit-identical** to the serial
sweep — times, aborted flags, rows, and meta all match, regardless of
worker count, chunk size, or refinement policy.

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
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.cellstore import (
    CellStore,
    SweepKeyer,
    lookup_cells,
    records_from_part,
)
from repro.core.driver import CellPolicy, DenseGridPolicy, SweepDriver
from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import Scenario, ScenarioSpec, build_scenario
from repro.errors import ExperimentError

ProviderFactory = Callable[[], Sequence]


def partition_cells(n_cells: int, n_chunks: int) -> list[list[int]]:
    """Split ``range(n_cells)`` into at most ``n_chunks`` contiguous runs.

    Contiguous runs keep each worker's predicate/mask reuse warm and make
    chunk boundaries easy to reason about; sizes differ by at most one.
    """
    if n_cells <= 0:
        raise ExperimentError(f"cannot partition {n_cells} cells")
    n_chunks = max(1, min(n_chunks, n_cells))
    base, extra = divmod(n_cells, n_chunks)
    chunks: list[list[int]] = []
    start = 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


# ---------------------------------------------------------------------------
# worker side: providers + sweep built once, scenarios rebuilt per spec
# ---------------------------------------------------------------------------

_WORKER_SWEEP: RobustnessSweep | None = None
_WORKER_SCENARIO: tuple[ScenarioSpec, object] | None = None


def _init_worker(factory: ProviderFactory, sweep_kwargs: dict) -> None:
    global _WORKER_SWEEP, _WORKER_SCENARIO
    _WORKER_SWEEP = RobustnessSweep(list(factory()), **sweep_kwargs)
    _WORKER_SCENARIO = None


def _worker_scenario(spec: ScenarioSpec):
    """Scenario instance for a spec, memoized per worker across chunks.

    Rebuilding predicates and oracle masks per chunk would repeat work
    the serial path does once.  A pool only ever runs one sweep (each
    :meth:`ParallelSweep.sweep` call creates its own executor), so a
    single slot suffices.
    """
    global _WORKER_SCENARIO
    if _WORKER_SCENARIO is None or _WORKER_SCENARIO[0] != spec:
        assert _WORKER_SWEEP is not None, "worker pool not initialized"
        _WORKER_SCENARIO = (spec, build_scenario(spec, _WORKER_SWEEP.systems))
    return _WORKER_SCENARIO[1]


def _run_chunk(spec: ScenarioSpec, cells: list[int]) -> MapData:
    assert _WORKER_SWEEP is not None, "worker pool not initialized"
    # One raw measurement pass, not a driver run: the chunk part must
    # keep meta["cells"] even when a single chunk happens to cover the
    # whole grid (a driver would normalize that to a complete map and
    # the parent's merge would reject it).
    return _WORKER_SWEEP._sweep_cells(_worker_scenario(spec), cells)


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


@dataclass
class _StoreContext:
    """Parent-side cell-store machinery for one parallel sweep.

    Workers never see the store: the parent partitions every wave into
    hits and misses with this context, replays the hits through its own
    in-process sweep (``parent._sweep_cells(..., preloaded=...)``), and
    writes the parts workers return back to the store.
    """

    store: CellStore
    parent: RobustnessSweep
    scenario: Scenario
    keyer: SweepKeyer
    plan_ids: list[str]


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
      ``-1`` uses ``os.cpu_count()``.
    * ``chunk_cells`` — cells per chunk; ``0`` auto-sizes to roughly four
      chunks per worker (load balance without drowning in IPC).
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
        chunk_cells: int = 0,
        progress: Callable[[ProgressEvent], None] | None = None,
        cell_store: CellStore | None = None,
        store_context: str = "",
        snapshot_every: int | None = None,
        capture_profiles: bool = False,
    ) -> None:
        self.factory = factory
        # Workers never receive the store (the parent owns all reads and
        # writes), so these kwargs deliberately exclude it.  Snapshots
        # stay out too: workers see chunk-local coverage only, so the
        # parent attaches merged snapshots at chunk granularity instead.
        # capture_profiles travels to the workers: profiles are plain
        # dicts in part meta, so they pickle back with the part and merge
        # like any other coverage.
        self.sweep_kwargs = {
            "budget_seconds": budget_seconds,
            "memory_bytes": memory_bytes,
            "jitter": jitter,
            "capture_profiles": capture_profiles,
        }
        self.n_workers = n_workers
        self.chunk_cells = chunk_cells
        self.progress = progress or (lambda event: None)
        self.cell_store = cell_store
        self.store_context = store_context
        self.snapshot_every = snapshot_every
        self._serial: RobustnessSweep | None = None
        self._last_wave_hits: int | None = None

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

    def _n_chunks(self, n_cells: int, workers: int) -> int:
        """Chunks a wave of ``n_cells`` splits into (about four per worker)."""
        if self.chunk_cells > 0:
            return -(-n_cells // self.chunk_cells)
        return workers * 4

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
        n_cells = spec.n_cells
        workers = self.resolved_workers()
        if workers <= 1 or n_cells < 2:
            sweep = self._serial_sweep()
            scenario = build_scenario(spec, sweep.systems)
            return sweep.sweep(scenario, policy=policy)

        if policy is None:
            policy = DenseGridPolicy()
        # No wave can produce more chunks than the full grid would, so
        # don't spawn (initializer-heavy) workers beyond that.
        max_chunks = self._n_chunks(n_cells, workers)

        store_ctx: _StoreContext | None = None
        if self.cell_store is not None:
            # Parent-side scenario: keys, hit replay, and write-back all
            # happen here, never in a worker.  Progress stays silent on
            # this sweep — _measure_wave emits the chunk events itself.
            # The store rides along so profile capture can replay stored
            # span trees on hits (measurement hits arrive preloaded).
            parent = RobustnessSweep(
                list(self.factory()),
                cell_store=self.cell_store,
                store_context=self.store_context,
                **self.sweep_kwargs,
            )
            scenario = build_scenario(spec, parent.systems)
            store_ctx = _StoreContext(
                store=self.cell_store,
                parent=parent,
                scenario=scenario,
                keyer=parent.store_keyer(scenario),
                plan_ids=parent._collect_plan_ids(
                    scenario.plan_ids_by_provider()
                ),
            )

        lazy = _LazyPool(
            lambda n_tasks: ProcessPoolExecutor(
                max_workers=max(1, min(workers, max(1, n_tasks), max_chunks)),
                initializer=_init_worker,
                initargs=(self.factory, self.sweep_kwargs),
            )
        )
        try:
            driver = SweepDriver(
                measure=lambda wave: self._measure_wave(
                    lazy, spec, wave, workers, store_ctx
                ),
                shape=spec.grid_shape,
                policy=policy,
                scenario=spec.name,
                progress=self.progress,
                wave_hits=lambda: self._last_wave_hits,
                snapshots=self.snapshot_every is not None,
            )
            return driver.run()
        finally:
            lazy.shutdown()

    def _measure_wave(
        self,
        lazy: _LazyPool,
        spec: ScenarioSpec,
        wave: list[int],
        workers: int,
        store_ctx: _StoreContext | None,
    ) -> MapData:
        """Measure one wave: partition, chunk, dispatch, merge.

        With a store context the wave is first split into hits (replayed
        in the parent, no dispatch) and misses (chunked out to workers,
        then written back).  An all-hit wave touches the pool not at all;
        pool creation is deferred to the first actual dispatch and sized
        to it.  Merge order-independence is unchanged.
        """
        hits: dict = {}
        if store_ctx is not None:
            hits = lookup_cells(
                store_ctx.store,
                store_ctx.keyer,
                store_ctx.plan_ids,
                wave,
                spec.grid_shape,
            )
        self._last_wave_hits = len(hits) if store_ctx is not None else None
        misses = [flat for flat in wave if flat not in hits]

        if misses:
            positions = partition_cells(
                len(misses), self._n_chunks(len(misses), workers)
            )
            chunks = [[misses[i] for i in chunk] for chunk in positions]
        else:
            chunks = []
        parts: list[MapData] = []
        parts_total = len(chunks) + (1 if hits else 0)
        done_cells = 0
        # Elapsed/ETA are per wave (like the serial per-cell loop):
        # mixing a sweep-global clock with per-wave cell counts would
        # inflate later refinement rounds' ETAs by the earlier rounds'
        # runtime.
        start = time.monotonic()
        cache_hits = len(hits) if store_ctx is not None else None

        def emit() -> None:
            # Snapshots merge the parts finished so far — chunk
            # completion is the natural snapshot cadence here (the
            # per-cell stride lives in the serial loop).
            self.progress(
                ProgressEvent(
                    scenario=spec.name,
                    done=done_cells,
                    total=len(wave),
                    elapsed=time.monotonic() - start,
                    kind="chunk",
                    parts_done=len(parts),
                    parts_total=parts_total,
                    cache_hits=cache_hits,
                    snapshot=(
                        SweepDriver._combined(parts)
                        if self.snapshot_every is not None and parts
                        else None
                    ),
                )
            )

        if hits:
            # Replay stored cells through the parent's in-process sweep:
            # the part is built by the same code path a cold chunk uses,
            # so the merged map stays bit-identical.
            parts.append(
                store_ctx.parent._sweep_cells(
                    store_ctx.scenario, sorted(hits), preloaded=hits
                )
            )
            done_cells += len(hits)
            emit()
        if chunks:
            pool = lazy.get(len(chunks))
            futures = {
                pool.submit(_run_chunk, spec, chunk): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                part = future.result()
                if store_ctx is not None:
                    store_ctx.store.put_many(
                        records_from_part(store_ctx.keyer, part)
                    )
                parts.append(part)
                done_cells += len(futures[future])
                emit()
        # Completion order is scheduler noise; the driver's combine step
        # sorts parts by first cell index, so the merge is
        # order-independent by construction.
        return SweepDriver._combined(parts)
