"""Policy-driven, wave-based sweep driver: one sweep wave, written once.

The paper's robustness maps are interesting precisely at their
discontinuities — spill cliffs, plan-crossover ridges, the hash join's
all-or-nothing edge — yet a dense grid sweep spends the same measurement
budget on every cell, most of which land on flat plateaus.  The
:class:`SweepDriver` separates *which cells to measure next* (a
:class:`CellPolicy`) from *how to measure them* (the serial and the
parallel engine), and runs rounds: the policy proposes a wave of flat
cell indices, and the driver runs that wave the same way for both
engines.  The engine partitions it into store hits and misses (at the
call site the benchmark patches); the driver splits the misses into
parts, hands each part the engine measured to the engine's write-back,
folds hits and parts alike into the sweep's arrays — both arrive as the
cell store's own records, :data:`~repro.core.cellstore.Cells` — and
emits every progress event and snapshot itself; the engine measures —
cell by cell in-process, chunk by chunk in the process pool.

Two policies ship:

* :class:`DenseGridPolicy` — one wave covering the whole grid (or an
  explicit cell subset).  This reproduces the classic dense sweep
  **bit-identically**: same measurements, same meta, same progress.
* :class:`AdaptiveRefinePolicy` — starts on a coarse subgrid and
  iteratively subdivides boxes whose corners show a high relative-cost
  gradient (quotient-to-best spread), a change in the argmin plan
  (crossover ridge), or budget-censored values, until the target
  resolution or a ``max_cells`` budget is reached.  Cells it measures
  are bit-identical to the dense sweep's (every measurement is an
  independent cold-cache run); cells it skips stay unmeasured — see
  :meth:`MapData.densify` for the interpolation view the renderers use.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import groupby, product
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.cellstore import Cells, grid_positions
from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent
from repro.errors import ExperimentError
from repro.obs.profile import PROFILES_META_KEY, STORE_KEY_SUFFIX, profile_key


def _row_runs(cells: list[int], row_length: int, n_parts: int) -> list[list[int]]:
    """Sorted flat cells cut into runs of consecutive cells inside one grid
    row (cells sharing every coordinate but the last).

    A row holding ``n`` of the ``m`` cells is cut into
    ``ceil(n * n_parts / m)`` near-equal runs (at most ``n``), so no run is
    longer than ``ceil(m / n_parts)`` and there are at least
    ``min(n_parts, m)`` runs.
    """
    runs: list[list[int]] = []
    for _row, group in groupby(cells, key=lambda flat: flat // row_length):
        row = list(group)
        pieces = min(len(row), -(-len(row) * n_parts // len(cells)))
        base, extra = divmod(len(row), pieces)
        start = 0
        for piece in range(pieces):
            size = base + (piece < extra)
            runs.append(row[start : start + size])
            start += size
    return runs


def partition_cells(
    cells: Sequence[int], shape: Sequence[int], n_parts: int
) -> list[list[int]]:
    """Deal sorted flat cells to ``min(n_parts, len(cells))`` parts, whole
    grid rows at a time.

    The cells of a grid row reuse work — a page trace that repeats along
    the last axis (which the LRU kernel's memo answers), a join row's
    build input and index — so the cells are cut into row runs
    (:func:`_row_runs`; a 1-D grid's one row into near-equal contiguous
    chunks) and each run goes to one part whole.  The runs are dealt from
    the last one back, in snake order — parts ``0..k-1``, then
    ``k-1..0``, and so on — so the dearest rows (the last ones in every
    shipped scenario) each share a part with cheap ones; dealt from the
    first run, the lap turn would put the two dearest rows in one part.
    Each part's cells stay sorted.
    """
    cells = [int(c) for c in cells]
    if not cells:
        raise ExperimentError("cannot partition an empty cell list")
    n_parts = max(1, min(n_parts, len(cells)))
    dealt: list[list[list[int]]] = [[] for _ in range(n_parts)]
    for i, run in enumerate(reversed(_row_runs(cells, shape[-1], n_parts))):
        lap, slot = divmod(i, n_parts)
        dealt[slot if lap % 2 == 0 else n_parts - 1 - slot].append(run)
    return [[flat for run in reversed(part) for flat in run] for part in dealt]


@dataclass
class SweepState:
    """What the driver has accumulated so far, as the policy sees it."""

    shape: tuple[int, ...]
    measured: set[int] = field(default_factory=set)
    mapdata: MapData | None = None
    round_index: int = 0

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))


class CellPolicy(ABC):
    """Proposes the next wave of flat cell indices to measure."""

    name: str = "?"

    #: Whether the policy can run more than one wave.  Single-wave
    #: policies keep the driver silent (no round events), preserving the
    #: classic dense sweep's progress stream exactly.
    multi_round: bool = False

    @abstractmethod
    def next_wave(self, state: SweepState) -> Sequence[int]:
        """Flat cell indices to measure next; empty ends the sweep."""

    def result_meta(self, state: SweepState) -> dict:
        """Extra meta entries for the finished map (empty: add nothing)."""
        return {}


class DenseGridPolicy(CellPolicy):
    """The classic sweep: every grid cell (or an explicit subset), once."""

    name = "dense"
    multi_round = False

    def __init__(self, cells: Sequence[int] | None = None) -> None:
        self.cells = None if cells is None else [int(c) for c in cells]

    def next_wave(self, state: SweepState) -> Sequence[int]:
        if state.round_index > 0:
            return []
        if self.cells is None:
            return list(range(state.n_cells))
        cells = sorted(self.cells)
        if not cells:
            raise ExperimentError("an explicit cell list names at least one cell")
        if cells[0] < 0 or cells[-1] >= state.n_cells:
            raise ExperimentError(
                f"cell indices out of range for a {state.n_cells}-cell grid: "
                f"{cells}"
            )
        if len(set(cells)) != len(cells):
            raise ExperimentError(f"duplicate cell indices: {cells}")
        return cells


class AdaptiveRefinePolicy(CellPolicy):
    """Coarse-to-fine refinement: measure the cliffs, not the plateaus.

    Wave 0 measures a coarse lattice (every ``initial_step``-th target
    index per axis, endpoints always included).  Each later wave halves
    the step and subdivides only the lattice boxes whose corners look
    interesting:

    * **relative-cost gradient** — some plan's quotient to the per-corner
      best plan changes by more than a factor of
      ``1 + GRADIENT_THRESHOLD`` across the box (the paper's *relative*
      maps vary exactly where robustness structure lives; smooth plateaus
      have near-constant quotients even when absolute costs climb by
      decades, and the factor form keeps a plan drifting from 60x to 70x
      of best as boring as one drifting from 1.0x to 1.17x);
    * **plan crossover** — the argmin plan differs between corners *and*
      switching matters: some corner-winning plan is worse than best by
      more than ``CROSSOVER_TOLERANCE`` at another corner.  Near-ties
      (e.g. two hash variants with identical cost below their spill
      point) flip the argmin without being structure;
    * **censoring boundary** — some plan is budget-censored (NaN) at part
      of the box's corners but measurable at others, i.e. the box
      straddles the censoring edge.  A plan censored at *every* corner
      contributes nothing (its cliff is not inside this box), so a
      uniformly hopeless plan cannot drag the whole grid to full
      resolution.

    Quotients are capped at ``QUOTIENT_CAP`` (one decade, the
    relative color scale's bucket width) before scoring: a plan 25x or
    150x off best renders far off either way, so chasing its exact
    multiple would waste budget on regions every figure paints the same.

    Boxes whose corners were never measured (their parent box was
    uninteresting) are never subdivided, so refinement cascades only
    where earlier rounds found structure.  With a single plan there is
    no quotient, so the plan's own relative spread is used instead.

    ``max_cells`` caps the total measured cells; candidate cells from
    higher-scoring boxes are kept first (ties broken by box position),
    so a tight budget concentrates on the sharpest cliffs.  Everything
    is deterministic: the same map state always yields the same waves.
    """

    name = "adaptive-refine"
    multi_round = True

    GRADIENT_THRESHOLD = 1.0
    CROSSOVER_TOLERANCE = 0.25
    QUOTIENT_CAP = 10.0

    def __init__(
        self, initial_step: int = 4, max_cells: int | None = None
    ) -> None:
        if initial_step < 1:
            raise ExperimentError(f"initial_step must be >= 1, got {initial_step}")
        if max_cells is not None and max_cells < 1:
            raise ExperimentError(f"max_cells must be >= 1, got {max_cells}")
        self.initial_step = int(initial_step)
        self.max_cells = None if max_cells is None else int(max_cells)
        self._steps: tuple[int, ...] = ()

    # ------------------------------------------------------------------

    def _axis_step(self, n: int) -> int:
        """Largest power of two <= initial_step that still leaves the
        axis at least two lattice intervals to refine into."""
        cap = min(self.initial_step, max(1, (n - 1) // 2))
        step = 1
        while step * 2 <= cap:
            step *= 2
        return step

    @staticmethod
    def _lattice_axis(n: int, step: int) -> list[int]:
        return sorted(set(range(0, n, step)) | {n - 1})

    def _budgeted(self, cells: list[int], state: SweepState) -> list[int]:
        if self.max_cells is None:
            return cells
        return cells[: max(0, self.max_cells - len(state.measured))]

    def _score(self, mapdata: MapData, corner_flats: list[int]) -> float:
        """Interest of a lattice box, from its measured corner cells."""
        flat_times = mapdata.times.reshape(mapdata.n_plans, -1)
        times = flat_times[:, corner_flats]
        censored = np.isnan(times)
        if (censored.any(axis=1) & ~censored.all(axis=1)).any():
            return float("inf")  # censoring boundary: resolve the edge
        alive = ~censored.all(axis=1)
        if not alive.any():
            return 0.0  # every plan censored everywhere: nothing to find
        times = times[alive]
        best = times.min(axis=0)
        if best.min() <= 0:
            return float("inf")
        if times.shape[0] == 1:
            ref = times[0]
            return float(ref.max() / ref.min() - 1.0)
        quotients = times / best
        winners = np.unique(times.argmin(axis=0))
        if (
            winners.size > 1
            and quotients[winners].max() > 1.0 + self.CROSSOVER_TOLERANCE
        ):
            return float("inf")  # material crossover ridge
        capped = np.minimum(quotients, self.QUOTIENT_CAP)
        return float((capped.max(axis=1) / capped.min(axis=1)).max() - 1.0)

    # ------------------------------------------------------------------

    def next_wave(self, state: SweepState) -> Sequence[int]:
        shape = state.shape
        if state.round_index == 0:
            self._steps = tuple(self._axis_step(n) for n in shape)
            lattice = [
                self._lattice_axis(n, s) for n, s in zip(shape, self._steps)
            ]
            cells = [
                int(np.ravel_multi_index(coords, shape))
                for coords in product(*lattice)
            ]
            return self._budgeted(cells, state)

        if all(step <= 1 for step in self._steps):
            return []
        assert state.mapdata is not None
        new_steps = tuple(max(1, step // 2) for step in self._steps)
        lattices = [
            self._lattice_axis(n, s) for n, s in zip(shape, self._steps)
        ]
        box_spans = [
            list(zip(lat, lat[1:])) or [(lat[0], lat[0])] for lat in lattices
        ]
        boxes: list[tuple[float, int, list[int]]] = []
        for spans in product(*box_spans):
            los = tuple(lo for lo, _hi in spans)
            his = tuple(hi for _lo, hi in spans)
            corners = [
                int(np.ravel_multi_index(coords, shape))
                for coords in product(
                    *[(lo,) if hi == lo else (lo, hi) for lo, hi in spans]
                )
            ]
            if any(flat not in state.measured for flat in corners):
                continue  # parent box was uninteresting; stays coarse
            score = self._score(state.mapdata, corners)
            if score <= self.GRADIENT_THRESHOLD:
                continue
            refined = [
                sorted(set(range(lo, hi + 1, new_step)) | {lo, hi})
                for lo, hi, new_step in zip(los, his, new_steps)
            ]
            fresh = [
                flat
                for coords in product(*refined)
                if (flat := int(np.ravel_multi_index(coords, shape)))
                not in state.measured
            ]
            if fresh:
                boxes.append(
                    (score, int(np.ravel_multi_index(los, shape)), fresh)
                )
        self._steps = new_steps
        boxes.sort(key=lambda box: (-box[0], box[1]))
        wave: list[int] = []
        seen: set[int] = set()
        for _score, _origin, cells in boxes:
            for flat in cells:
                if flat not in seen:
                    seen.add(flat)
                    wave.append(flat)
        return self._budgeted(wave, state)

    def result_meta(self, state: SweepState) -> dict:
        return {
            "policy": self.name,
            "refine_rounds": state.round_index,
            "refine_initial_steps": [
                self._axis_step(n) for n in state.shape
            ],
            "refine_gradient_threshold": self.GRADIENT_THRESHOLD,
            "refine_crossover_tolerance": self.CROSSOVER_TOLERANCE,
            "refine_quotient_cap": self.QUOTIENT_CAP,
            "refine_max_cells": self.max_cells,
        }


class SweepDriver:
    """Runs a policy's waves through one engine; both engines share it.

    ``template`` is the sweep's empty map, whose arrays the driver
    fills.  The engine hands over three callables bound to its sweep,
    each moving cells as the store's records
    (:data:`~repro.core.cellstore.Cells`):

    * ``lookup(wave)`` — the wave's store hits (None: no store);
    * ``measure(parts)`` — yields ``(cells, description)`` for every list
      of cells it is given, in the order they finish;
    * ``write_back(cells)`` — stores a measured part.

    ``chunks`` says how a wave's misses split into parts: one per cell
    (None: the in-process engine, ``"cell"`` events) or that many parts
    (fewer for a smaller wave), each a deal of whole grid rows by
    :func:`partition_cells` (the pool, ``"chunk"`` events); a wave's
    store hits are one more part.  Parts are folded into the sweep's
    arrays as they land, so the map is the same whatever the engine, the
    chunking or the completion order.

    Every event carries running totals over the whole sweep, which never
    go back from one wave to the next: ``done`` (cells folded so far),
    ``cache_hits`` (cells the store answered so far; None without a
    store) and, with ``snapshot_every`` set, a snapshot of everything
    folded so far — on a replay event, on every ``snapshot_every``-th
    measured part of a wave and on its last, and on every round event.
    """

    def __init__(
        self,
        template: MapData,
        policy: CellPolicy,
        *,
        lookup: Callable[[list[int]], Cells | None],
        measure: Callable[[list[list[int]]], Iterable[tuple[Cells, str]]],
        write_back: Callable[[Cells], None],
        chunks: int | None,
        progress: Callable[[ProgressEvent], None],
        snapshot_every: int | None,
    ) -> None:
        self.shape = template.grid_shape
        self.policy = policy
        self.lookup = lookup
        self.measure = measure
        self.write_back = write_back
        self.chunks = chunks
        self.progress = progress
        self.snapshot_every = snapshot_every
        self._map = template  # the sweep's arrays
        self._covered: list[int] = []
        self._profiles: dict[int, dict[str, dict]] = {}  # flat -> key -> tree
        self._hits: int | None = None
        self._start = 0.0

    def run(self) -> MapData:
        state = SweepState(shape=self.shape)
        self._start = time.monotonic()
        while True:
            wave = self.policy.next_wave(state)
            wave = sorted({int(c) for c in wave} - state.measured)
            if not wave:
                break
            self._run_wave(wave, total=len(state.measured) + len(wave))
            state.measured.update(wave)
            state.round_index += 1
            state.mapdata = self._map
            if self.policy.multi_round:
                self._emit(
                    True,
                    kind="round",
                    total=state.n_cells,
                    round_index=state.round_index,
                    wave_cells=len(wave),
                )
        if not self._covered:
            raise ExperimentError(
                f"policy {self.policy.name!r} proposed no cell to measure"
            )
        result = self._partial()
        if self._profiles:
            # In cell order, then plan order: the same whatever order the
            # parts landed in.
            result.meta[PROFILES_META_KEY] = {
                key: tree
                for flat in sorted(self._profiles)
                for key, tree in self._profiles[flat].items()
            }
        # The merge drops meta["cells"] when the waves covered the grid.
        result = MapData.merge([result])
        result.meta.update(self.policy.result_meta(state))
        return result

    def _run_wave(self, wave: list[int], total: int) -> None:
        hits = self.lookup(wave)
        if hits is None:
            hits = {}
        else:
            self._hits = len(hits) + (self._hits or 0)
        misses = [flat for flat in wave if flat not in hits]
        if not misses:
            parts = []
        elif self.chunks is None:
            parts = [[flat] for flat in misses]
        else:
            parts = partition_cells(misses, self.shape, self.chunks)
        tick = {
            "kind": "cell" if self.chunks is None else "chunk",
            "total": total,
            "parts_total": len(parts) + bool(hits),
        }
        if hits:
            self._fold(hits)
            detail = f"{len(hits)} cells from cell store"
            self._emit(True, parts_done=1, detail=detail, **tick)
        every = self.snapshot_every
        for landed, (part, detail) in enumerate(self.measure(parts), 1):
            self._fold(part)
            self.write_back(part)
            snapshot = every is not None and (
                landed % every == 0 or landed == len(parts)
            )
            self._emit(
                snapshot, parts_done=bool(hits) + landed, detail=detail, **tick
            )

    def _fold(self, cells: Cells) -> None:
        """Copy each cell's records into the sweep's arrays, and its span
        trees (if any rode along) aside."""
        plan_ids = self._map.plan_ids
        times, aborted, rows = self._map.times, self._map.aborted, self._map.rows
        positions = grid_positions(list(cells), self.shape)
        for idx, (flat, records) in zip(positions, cells.items()):
            rows[idx] = records[plan_ids[0]]["r"]
            for p, plan_id in enumerate(plan_ids):
                record = records[plan_id]
                if record["a"]:
                    aborted[(p, *idx)] = True  # times stays NaN
                elif record["s"] is not None:
                    times[(p, *idx)] = record["s"]
            if len(records) > len(plan_ids):
                self._profiles[flat] = {
                    profile_key(plan_id, idx): records[name]
                    for plan_id in plan_ids
                    if (name := plan_id + STORE_KEY_SUFFIX) in records
                }
        self._covered.extend(cells)

    def _partial(self) -> MapData:
        """A copy of everything folded so far; ``meta["cells"]`` is its
        coverage."""
        return MapData(
            plan_ids=list(self._map.plan_ids),
            times=self._map.times.copy(),
            aborted=self._map.aborted.copy(),
            rows=self._map.rows.copy(),
            axes=list(self._map.axes),
            meta=dict(self._map.meta, cells=sorted(self._covered)),
        )

    def _emit(self, snapshot: bool, **fields) -> None:
        self.progress(
            ProgressEvent(
                scenario=self._map.meta["scenario"],
                done=len(self._covered),
                elapsed=time.monotonic() - self._start,
                cache_hits=self._hits,
                snapshot=(
                    self._partial()
                    if snapshot and self.snapshot_every is not None
                    else None
                ),
                **fields,
            )
        )
