"""Sweep runner: measure forced plans over N-D scenario grids.

Methodology mirrors the paper's §3: plan choices are eliminated by
construction (the scenarios hand over forced plan trees), every cell is a
cold-cache measurement on the virtual clock, and overly expensive plans
are censored by a cost budget (Fig 1's traditional index scan "is not
even shown across the entire range").

What gets swept is pluggable twice over: a
:class:`~repro.core.scenario.Scenario` owns the swept axes (selectivity,
memory budget, input size, ...), the per-cell plan providers, and the
per-cell oracle; a :class:`~repro.core.driver.CellPolicy` owns *which*
cells get measured.  :meth:`RobustnessSweep.sweep` is a thin front-end
over the wave-based :class:`~repro.core.driver.SweepDriver` — the
default dense policy reproduces the classic full-grid sweep
bit-identically, while :class:`~repro.core.driver.AdaptiveRefinePolicy`
concentrates the measurement budget on the map's structure.

Optional deterministic measurement jitter reproduces the paper's
"measurement flukes in the sub-second range" (Fig 5) and the 0.1 s ties
of Fig 10 without sacrificing reproducibility.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.cellstore import (
    CellRecord,
    CellStore,
    SweepKeyer,
    lookup_cells,
    records_from_part,
)
from repro.core.driver import (
    CellPolicy,
    DenseGridPolicy,
    SweepDriver,
    resolve_cells,
)
from repro.core.mapdata import MapAxis, MapData
from repro.core.progress import ProgressEvent, checked_snapshot_every
from repro.core.scenario import Cell, Scenario
from repro.errors import ExperimentError
from repro.executor.plans import MeasuredRun, PlanRunner
from repro.obs.profile import (
    PROFILES_META_KEY,
    STORE_KEY_SUFFIX,
    CellProfile,
    profile_key,
)
from repro.obs.tracer import Tracer, use_tracer


@dataclass(frozen=True)
class Jitter:
    """Deterministic measurement noise: t' = t(1 + rel*g) + abs*|g'|."""

    rel: float = 0.01
    abs: float = 0.002
    seed: int = 2009

    def apply(self, seconds: float, plan_id: str, cell: tuple[int, ...]) -> float:
        # Process-independent digest: Python's builtin hash() of strings is
        # randomized per process (PYTHONHASHSEED), which would make the
        # "deterministic measurement flukes" differ between runs, workers,
        # and cached maps.
        payload = repr(
            (int(self.seed), str(plan_id), tuple(int(c) for c in cell))
        ).encode("utf-8")
        digest = int.from_bytes(
            hashlib.blake2s(payload, digest_size=8).digest(), "big"
        )
        rng = np.random.default_rng(digest)
        noisy = seconds * (1.0 + self.rel * rng.standard_normal())
        noisy += self.abs * abs(rng.standard_normal())
        return max(noisy, 0.0)


class RobustnessSweep:
    """Runs robustness-map sweeps: any scenario, any grid dimensionality.

    ``systems`` are the plan providers scenarios get built over (the
    parallel engine rebuilds each spec against them); :meth:`sweep`
    itself measures with whatever providers its scenario carries.

    With a ``cell_store`` (see :mod:`repro.core.cellstore`), every wave
    is partitioned into store hits (loaded, never measured) and misses
    (measured, then written back); the resulting maps are bit-identical
    to a cold sweep, censored cells and abort flags included.
    ``store_context`` is the opaque caller string folded into every key —
    it must cover whatever shapes the providers outside the scenario spec
    (table rows/seed, buffer-pool pages, ...).

    ``snapshot_every`` (default off) attaches a partial-map snapshot to
    every ``snapshot_every``-th progress event: a :class:`MapData` copy
    carrying exactly the cells measured so far (``meta["cells"]``), so a
    live consumer — the map service's partial-map polls — can render the
    sparse map mid-sweep.  Snapshots never change what gets measured.

    ``capture_profiles`` (default off) installs a sim-time
    :class:`~repro.obs.tracer.Tracer` around every plan measurement and
    attaches the resulting per-cell span trees to ``meta["profiles"]``
    (see :mod:`repro.obs.profile`).  Spans observe charging but never
    alter it, so measured maps are bit-identical with capture on or off;
    with a cell store, profiles ride along under derived ``#profile``
    keys and replay on hits.
    """

    def __init__(
        self,
        systems: Iterable,
        budget_seconds: float | None = None,
        memory_bytes: int | None = None,
        jitter: Jitter | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
        cell_store: CellStore | None = None,
        store_context: str = "",
        snapshot_every: int | None = None,
        capture_profiles: bool = False,
    ) -> None:
        self.systems = list(systems)
        if not self.systems:
            raise ExperimentError("need at least one system to sweep")
        self.budget_seconds = budget_seconds
        self.memory_bytes = memory_bytes
        self.jitter = jitter
        self.progress = progress or (lambda event: None)
        self.cell_store = cell_store
        self.store_context = store_context
        self.capture_profiles = capture_profiles
        self.snapshot_every = checked_snapshot_every(snapshot_every)
        self._last_wave_hits: int | None = None

    # ------------------------------------------------------------------

    def _collect_plan_ids(self, ids_per_provider: list) -> list[str]:
        """Plan id list across providers; rejects id collisions."""
        plan_ids = [
            plan_id for provider_ids in ids_per_provider for plan_id in provider_ids
        ]
        duplicates = sorted(
            plan_id
            for plan_id, count in Counter(plan_ids).items()
            if count > 1
        )
        if duplicates:
            raise ExperimentError(
                f"duplicate plan ids across systems: {duplicates}; "
                "measurements would silently overwrite each other"
            )
        return plan_ids

    def _measure_cell(
        self,
        plans_by_runner: list[tuple[PlanRunner, dict]],
        cell: tuple[int, ...],
        expected_rows: int,
        profiles: dict[str, dict] | None = None,
    ) -> dict[str, MeasuredRun]:
        runs: dict[str, MeasuredRun] = {}
        for runner, plans in plans_by_runner:
            for plan_id, plan in plans.items():
                if profiles is None:
                    run = runner.measure(plan)
                else:
                    # Spans observe charging but never alter it (same
                    # contract as batching), so the measured map is
                    # bit-identical with capture on or off.  The profile
                    # keeps the raw virtual seconds — jitter is a
                    # presentation transform applied in _record.
                    tracer = Tracer()
                    with use_tracer(tracer):
                        run = runner.measure(plan)
                    profiles[profile_key(plan_id, cell)] = CellProfile(
                        plan_id=plan_id,
                        cell=tuple(int(c) for c in cell),
                        seconds=run.seconds,
                        aborted=run.aborted,
                        spans=tracer.drain(),
                    ).to_dict()
                if not run.aborted and run.n_rows != expected_rows:
                    raise ExperimentError(
                        f"plan {plan_id} returned {run.n_rows} rows at cell "
                        f"{cell}; oracle says {expected_rows}"
                    )
                runs[plan_id] = run
        return runs

    def _record(
        self,
        runs: dict[str, MeasuredRun],
        plan_ids: list[str],
        times: np.ndarray,
        aborted: np.ndarray,
        cell: tuple[int, ...],
    ) -> None:
        for p, plan_id in enumerate(plan_ids):
            run = runs[plan_id]
            index = (p, *cell)
            if run.aborted:
                times[index] = np.nan
                aborted[index] = True
            else:
                seconds = run.seconds
                if self.jitter is not None:
                    seconds = self.jitter.apply(seconds, plan_id, cell)
                times[index] = seconds

    # ------------------------------------------------------------------
    # the generic N-D scenario sweep
    # ------------------------------------------------------------------

    def sweep(
        self,
        scenario: Scenario,
        policy: CellPolicy | None = None,
    ) -> MapData:
        """Measure a scenario's plans over the cells a policy proposes.

        This is a thin front-end over the wave-based
        :class:`~repro.core.driver.SweepDriver`.  The default
        :class:`~repro.core.driver.DenseGridPolicy` measures the full
        N-D grid (or its explicit ``cells`` subset) exactly as the
        classic sweep did, bit-identically; pass an
        :class:`~repro.core.driver.AdaptiveRefinePolicy` to measure a
        coarse-to-fine subset concentrated on the map's structure.
        Partial results carry ``meta["cells"]`` for later
        :meth:`MapData.merge`; measured values are bit-identical
        regardless of policy, chunking, or wave order.
        """
        driver = SweepDriver(
            measure=lambda wave: self._sweep_cells(scenario, wave),
            shape=scenario.grid_shape,
            policy=policy or DenseGridPolicy(),
            scenario=scenario.name,
            progress=self.progress,
            wave_hits=lambda: self._last_wave_hits,
            snapshots=self.snapshot_every is not None,
        )
        return driver.run()

    def store_keyer(self, scenario: Scenario) -> SweepKeyer:
        """The content-address keyer for this sweep's configuration."""
        return SweepKeyer(
            scenario,
            budget_seconds=self.budget_seconds,
            memory_bytes=self.memory_bytes,
            jitter=self.jitter,
            context=self.store_context,
        )

    def _fill_stored(
        self,
        records: dict[str, CellRecord],
        plan_ids: list[str],
        times: np.ndarray,
        aborted: np.ndarray,
        rows: np.ndarray,
        idx: tuple[int, ...],
    ) -> None:
        """Replay one stored cell into the arrays (inverse of _record)."""
        rows[idx] = int(records[plan_ids[0]]["r"])
        for p, plan_id in enumerate(plan_ids):
            record = records[plan_id]
            index = (p, *idx)
            if record["a"]:
                aborted[index] = True  # times stays NaN, as _record leaves it
            elif record["s"] is not None:
                times[index] = float(record["s"])

    def _sweep_cells(
        self,
        scenario: Scenario,
        cells: Sequence[int],
        preloaded: dict[int, dict[str, CellRecord]] | None = None,
    ) -> MapData:
        """One wave: measure the given flat cell indices in order.

        With a configured cell store, cells the store can answer are
        loaded instead of measured and fresh measurements are written
        back.  ``preloaded`` short-circuits the lookup with records the
        caller already fetched (the parallel engine partitions waves in
        the parent and hands the hit part here); preloaded waves are
        never re-counted or written back.
        """
        axes, shape = scenario.axes, scenario.grid_shape
        plan_ids = self._collect_plan_ids(scenario.plan_ids_by_provider())
        if not plan_ids:
            raise ExperimentError(f"scenario {scenario.name!r} has no plans")
        # Shared with DenseGridPolicy: one validation authority.
        cell_list = resolve_cells(cells, scenario.n_cells)
        times = np.full((len(plan_ids), *shape), np.nan)
        aborted = np.zeros((len(plan_ids), *shape), dtype=bool)
        rows = np.zeros(shape, dtype=np.int64)
        map_axes = [
            MapAxis(axis.name, axis.targets, scenario.achieved(i))
            for i, axis in enumerate(axes)
        ]
        covered: list[int] = []

        def snapshot() -> MapData | None:
            """Partial-map copy of everything measured so far (or None)."""
            if self.snapshot_every is None:
                return None
            return MapData(
                plan_ids=list(plan_ids),
                times=times.copy(),
                aborted=aborted.copy(),
                rows=rows.copy(),
                meta={"scenario": scenario.name, "cells": sorted(covered)},
                axes=list(map_axes),
            )

        start = time.monotonic()
        keyer: SweepKeyer | None = None
        hits: dict[int, dict[str, CellRecord]] = {}
        if preloaded is not None:
            hits = preloaded
        elif self.cell_store is not None:
            keyer = self.store_keyer(scenario)
            hits = lookup_cells(
                self.cell_store, keyer, plan_ids, cell_list, shape
            )
        track_hits = preloaded is not None or self.cell_store is not None
        self._last_wave_hits = len(hits) if track_hits else None
        profiles: dict[str, dict] | None = (
            {} if self.capture_profiles else None
        )
        for flat, records in hits.items():
            idx = tuple(int(k) for k in np.unravel_index(flat, shape))
            self._fill_stored(records, plan_ids, times, aborted, rows, idx)
            if profiles is not None and self.cell_store is not None:
                if keyer is None:
                    keyer = self.store_keyer(scenario)
                for plan_id in plan_ids:
                    stored = self.cell_store.get(
                        keyer.key(plan_id + STORE_KEY_SUFFIX, idx)
                    )
                    if stored is not None:
                        profiles[profile_key(plan_id, idx)] = stored
        covered.extend(int(flat) for flat in hits)
        misses = [flat for flat in cell_list if flat not in hits]
        if hits:
            self.progress(
                ProgressEvent(
                    scenario=scenario.name,
                    done=len(hits),
                    total=len(cell_list),
                    elapsed=time.monotonic() - start,
                    kind="cell",
                    detail=f"{len(hits)} cells from cell store",
                    cache_hits=len(hits),
                    snapshot=snapshot(),
                )
            )

        providers = scenario.providers() if misses else []
        # One runner per provider, built once and reused across cells
        # (safe: every measure() cold-resets the environment).  Cells
        # that override memory_bytes get a fresh per-cell runner.
        default_runners = [
            provider.runner(
                budget_seconds=self.budget_seconds,
                memory_bytes=self.memory_bytes,
            )
            for provider in providers
        ]

        for done, flat in enumerate(misses):
            idx = tuple(int(k) for k in np.unravel_index(flat, shape))
            cell: Cell = scenario.cell(idx)
            rows[idx] = cell.expected_rows
            plans_by_runner = []
            for provider_i, plans in cell.plans:
                if cell.memory_bytes is None:
                    runner = default_runners[provider_i]
                else:
                    runner = providers[provider_i].runner(
                        budget_seconds=self.budget_seconds,
                        memory_bytes=cell.memory_bytes,
                    )
                plans_by_runner.append((runner, plans))
            runs = self._measure_cell(
                plans_by_runner, idx, cell.expected_rows, profiles=profiles
            )
            self._record(runs, plan_ids, times, aborted, idx)
            covered.append(int(flat))
            wants_snapshot = self.snapshot_every is not None and (
                (done + 1) % self.snapshot_every == 0 or done + 1 == len(misses)
            )
            self.progress(
                ProgressEvent(
                    scenario=scenario.name,
                    done=len(hits) + done + 1,
                    total=len(cell_list),
                    elapsed=time.monotonic() - start,
                    kind="cell",
                    detail=cell.describe,
                    cache_hits=len(hits) if track_hits else None,
                    snapshot=snapshot() if wants_snapshot else None,
                )
            )

        meta = dict(scenario.meta(self))
        meta["scenario"] = scenario.name
        meta["cells"] = cell_list
        if profiles:
            meta[PROFILES_META_KEY] = profiles
        part = MapData(
            plan_ids=plan_ids,
            times=times,
            aborted=aborted,
            rows=rows,
            meta=meta,
            axes=map_axes,
        )
        if keyer is not None and misses:
            # Warm waves compute no keys; a hit repeats its stored record,
            # which put_many skips.
            self.cell_store.put_many(records_from_part(keyer, part))
        return part
