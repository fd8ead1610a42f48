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
cells get measured.  :meth:`RobustnessSweep.sweep` is the in-process
front door of the wave-based :class:`~repro.core.driver.SweepDriver`:
per wave this engine partitions the cells into store hits and misses
(``lookup_cells``, the call site the benchmark patches), measures the
misses one cell at a time (:meth:`RobustnessSweep.measure_part`, which
the pool's workers run per chunk) and writes each back; the driver folds
hits and measured cells alike — both are the cell store's own records,
:data:`~repro.core.cellstore.Cells` — and emits every progress event.
The default dense policy reproduces the classic full-grid sweep
bit-identically, while :class:`~repro.core.driver.AdaptiveRefinePolicy`
concentrates the measurement budget on the map's structure.

Optional deterministic measurement jitter reproduces the paper's
"measurement flukes in the sub-second range" (Fig 5) and the 0.1 s ties
of Fig 10 without sacrificing reproducibility.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.cellstore import (
    Cells,
    CellStore,
    SweepKeyer,
    grid_positions,
    lookup_cells,
    records_from_part,
)
from repro.core.driver import CellPolicy, DenseGridPolicy, SweepDriver
from repro.core.mapdata import MapAxis, MapData
from repro.core.progress import ProgressEvent, checked_snapshot_every
from repro.core.scenario import Cell, Scenario
from repro.errors import ExperimentError
from repro.obs.profile import STORE_KEY_SUFFIX, CellProfile
from repro.obs.tracer import Span, Tracer, use_tracer

#: One plan's measurement at one cell: raw seconds, aborted, rows, and
#: the span tree under profile capture (else ``None``).
_Outcome = tuple[float, bool, int, list[Span] | None]


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
    (measured, then written back cell by cell); the resulting maps are
    bit-identical to a cold sweep, censored cells and abort flags
    included.  ``store_context`` is the opaque caller string folded into
    every key — it must cover whatever shapes the providers outside the
    scenario spec (table rows/seed, buffer-pool pages, ...).

    ``snapshot_every`` (default off) attaches a partial-map snapshot to
    every ``snapshot_every``-th measured cell of a wave, its last and
    every replay and round event: a :class:`MapData` copy carrying
    exactly the cells the sweep holds so far (``meta["cells"]``), so a
    live consumer — the map service's partial-map polls — can render the
    sparse map mid-sweep.  Snapshots never change what gets measured.

    ``capture_profiles`` (default off) installs a sim-time
    :class:`~repro.obs.tracer.Tracer` around every plan measurement and
    attaches the resulting per-cell span trees to ``meta["profiles"]``
    (see :mod:`repro.obs.profile`).  Spans observe charging but never
    alter it, so measured maps are bit-identical with capture on or off;
    with a cell store, profiles ride along under derived ``#profile``
    keys and come back with hits.
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
        #: The last measured cell's ``((scenario, projection), outcomes)``
        #: (see :meth:`measure_part`); emptied by every :meth:`sweep`.
        self._measured: tuple[tuple, dict[str, _Outcome]] | None = None

    def sweep(
        self,
        scenario: Scenario,
        policy: CellPolicy | None = None,
    ) -> MapData:
        """Measure a scenario's plans over the cells a policy proposes.

        The default :class:`~repro.core.driver.DenseGridPolicy` measures
        the full N-D grid (or its explicit ``cells`` subset) exactly as
        the classic sweep did, bit-identically; pass an
        :class:`~repro.core.driver.AdaptiveRefinePolicy` to measure a
        coarse-to-fine subset concentrated on the map's structure.
        Partial results carry ``meta["cells"]`` for later
        :meth:`MapData.merge`; measured values are bit-identical
        regardless of policy, chunking, or wave order.
        """
        plan_ids = self.plan_ids(scenario)
        self._measured = None
        store = self.cell_store
        keyer = None if store is None else self.store_keyer(scenario)

        def lookup(wave: list[int]) -> Cells | None:
            if store is None:
                return None
            hits = lookup_cells(store, keyer, plan_ids, wave, scenario.grid_shape)
            return self.with_stored_profiles(keyer, plan_ids, hits)

        def write_back(part: Cells) -> None:
            if store is not None:
                store.put_many(records_from_part(keyer, part))

        return SweepDriver(
            self.template(scenario, plan_ids),
            policy or DenseGridPolicy(),
            lookup=lookup,
            measure=lambda parts: (
                self.measure_part(scenario, plan_ids, cells) for cells in parts
            ),
            write_back=write_back,
            chunks=None,
            progress=self.progress,
            snapshot_every=self.snapshot_every,
        ).run()

    def store_keyer(self, scenario: Scenario) -> SweepKeyer:
        """The content-address keyer for this sweep's configuration."""
        return SweepKeyer(
            scenario,
            budget_seconds=self.budget_seconds,
            memory_bytes=self.memory_bytes,
            jitter=self.jitter,
            context=self.store_context,
        )

    def plan_ids(self, scenario: Scenario) -> list[str]:
        """The scenario's plan ids across providers; refuses none and
        collisions."""
        plan_ids = [
            plan_id
            for provider_ids in scenario.plan_ids_by_provider()
            for plan_id in provider_ids
        ]
        if not plan_ids:
            raise ExperimentError(f"scenario {scenario.name!r} has no plans")
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

    def template(self, scenario: Scenario, plan_ids: list[str]) -> MapData:
        """The sweep's empty map: NaN times, no aborts, the scenario's
        axes and meta."""
        shape = scenario.grid_shape
        return MapData(
            plan_ids=list(plan_ids),
            times=np.full((len(plan_ids), *shape), np.nan),
            aborted=np.zeros((len(plan_ids), *shape), dtype=bool),
            rows=np.zeros(shape, dtype=np.int64),
            meta=dict(scenario.meta(self), scenario=scenario.name),
            axes=[
                MapAxis(axis.name, axis.targets, scenario.achieved(i))
                for i, axis in enumerate(scenario.axes)
            ],
        )

    def measure_part(
        self, scenario: Scenario, plan_ids: list[str], cells: list[int]
    ) -> tuple[Cells, str]:
        """Measure the given flat cells, in order, into one part.

        Returns the part — each cell's store records: per plan ``{"s":
        seconds after jitter, or None if aborted, "a": aborted, "r":
        oracle rows}``, then under profile capture each plan's span tree
        under ``plan_id + "#profile"`` — and the last cell's description.
        Every measurement is a cold-cache run, so a runner per cell and
        provider is as good as one per sweep; a cell that overrides
        ``memory_bytes`` gets its own.

        A cell whose projection onto the scenario's
        :attr:`~repro.core.scenario.Scenario.measurement_axes` matches
        the previous measured cell's is not measured: it records that
        cell's measurements — each plan's raw seconds, abort flag and
        rows, and under profile capture its span tree — which are
        exactly what measuring it would give.  One slot on the sweep
        holds them; row dealing keeps such cells together.  Jitter, the
        profile's ``cell`` and the oracle row check are still the
        cell's own.
        """
        part: Cells = {}
        providers = scenario.providers()
        axes = scenario.measurement_axes
        describe = ""
        for flat, idx in zip(cells, grid_positions(cells, scenario.grid_shape)):
            cell = scenario.cell(idx)
            key = (scenario, idx if axes is None else tuple(idx[a] for a in axes))
            slot = self._measured
            if slot is not None and slot[0] == key:
                outcomes = slot[1]
            else:
                outcomes = self._measure_cell(providers, cell)
                self._measured = (key, outcomes)
            rows = int(cell.expected_rows)
            records = part[flat] = {}
            for plan_id in plan_ids:
                seconds, aborted = outcomes[plan_id][:2]
                if not aborted and self.jitter is not None:
                    seconds = self.jitter.apply(seconds, plan_id, idx)
                records[plan_id] = {
                    "s": None if aborted else float(seconds),
                    "a": aborted,
                    "r": rows,
                }
            for plan_id, (seconds, aborted, n_rows, spans) in outcomes.items():
                if spans is not None:
                    # The profile keeps the raw virtual seconds — jitter
                    # is a presentation transform applied above.
                    records[plan_id + STORE_KEY_SUFFIX] = CellProfile(
                        plan_id=plan_id,
                        cell=idx,
                        seconds=seconds,
                        aborted=aborted,
                        spans=spans,
                    ).to_dict()
                if not aborted and n_rows != cell.expected_rows:
                    raise ExperimentError(
                        f"plan {plan_id} returned {n_rows} rows at "
                        f"cell {idx}; oracle says {cell.expected_rows}"
                    )
            describe = cell.describe
        return part, describe

    def _measure_cell(self, providers: list, cell: Cell) -> dict[str, _Outcome]:
        """Each plan's ``(seconds, aborted, n_rows, spans)`` at one cell.

        Plain values, never the
        :class:`~repro.executor.plans.MeasuredRun`: its checksum closure
        would keep the plan's result arrays alive in the sweep's slot.
        ``spans`` is the captured span tree, or ``None`` without profile
        capture.
        """
        outcomes: dict[str, _Outcome] = {}
        for provider_i, plans in cell.plans:
            runner = providers[provider_i].runner(
                budget_seconds=self.budget_seconds,
                memory_bytes=(
                    self.memory_bytes
                    if cell.memory_bytes is None
                    else cell.memory_bytes
                ),
            )
            for plan_id, plan in plans.items():
                spans = None
                if not self.capture_profiles:
                    run = runner.measure(plan)
                else:
                    # Spans observe charging but never alter it, so the
                    # measured map is bit-identical with capture on or off.
                    tracer = Tracer()
                    with use_tracer(tracer):
                        run = runner.measure(plan)
                    spans = tracer.drain()
                outcomes[plan_id] = (run.seconds, run.aborted, run.n_rows, spans)
        return outcomes

    def with_stored_profiles(
        self, keyer: SweepKeyer, plan_ids: list[str], hits: Cells
    ) -> Cells:
        """A wave's store hits; under profile capture, each hit's stored
        span trees go next to its records.  Both engines' lookups end
        here."""
        if self.capture_profiles:
            names = [plan_id + STORE_KEY_SUFFIX for plan_id in plan_ids]
            positions = grid_positions(list(hits), keyer.shape)
            for idx, records in zip(positions, hits.values()):
                for name, key in zip(names, keyer.keys(names, idx)):
                    tree = self.cell_store.get(key)
                    if tree is not None:
                        records[name] = tree
        return hits
