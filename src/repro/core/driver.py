"""Policy-driven, wave-based sweep driver.

The paper's robustness maps are interesting precisely at their
discontinuities — spill cliffs, plan-crossover ridges, the hash join's
all-or-nothing edge — yet a dense grid sweep spends the same measurement
budget on every cell, most of which land on flat plateaus.  The
:class:`SweepDriver` separates *which cells to measure next* (a
:class:`CellPolicy`) from *how to measure them* (a backend callable the
serial and parallel engines provide), and runs rounds: the policy
proposes a wave of flat cell indices, the backend measures it into a
partial :class:`~repro.core.mapdata.MapData`, the driver merges and asks
again.

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
from itertools import product
from typing import Callable, Sequence

import numpy as np

from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent
from repro.errors import ExperimentError

MeasureFn = Callable[[list[int]], MapData]


def resolve_cells(cells: Sequence[int] | None, n_cells: int) -> list[int]:
    """Validated sorted flat cell indices (all cells when None).

    The single validation authority for explicit cell lists — shared by
    :class:`DenseGridPolicy` and the runner's raw measurement pass.
    """
    if cells is None:
        return list(range(n_cells))
    resolved = sorted(int(c) for c in cells)
    if not resolved:
        raise ExperimentError("an explicit cell list names at least one cell")
    if resolved[0] < 0 or resolved[-1] >= n_cells:
        raise ExperimentError(
            f"cell indices out of range for a {n_cells}-cell grid: "
            f"{resolved}"
        )
    if len(set(resolved)) != len(resolved):
        raise ExperimentError(f"duplicate cell indices: {resolved}")
    return resolved


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
        return resolve_cells(self.cells, state.n_cells)


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
    """Runs a policy's waves through a measurement backend and merges.

    ``measure`` receives a sorted list of unmeasured flat cell indices
    and must return the corresponding partial MapData — the serial
    engine measures in-process, the parallel engine fans the wave out
    over its (persistent) worker pool.  The merged result is identical
    regardless of backend, chunking, or completion order.

    ``wave_hits`` (optional) reports how many cells of the wave the
    backend answered from the content-addressed cell store (None: no
    store configured); round events carry it as ``cache_hits``.

    With ``snapshots=True``, every round event additionally carries the
    merged-so-far partial :class:`MapData` as ``event.snapshot`` — under
    a multi-round policy this is the cumulative coverage across waves,
    complementing the per-cell/per-chunk snapshots the backends attach
    within a wave.
    """

    def __init__(
        self,
        measure: MeasureFn,
        shape: tuple[int, ...],
        policy: CellPolicy,
        scenario: str = "?",
        progress: Callable[[ProgressEvent], None] | None = None,
        wave_hits: Callable[[], int | None] | None = None,
        snapshots: bool = False,
    ) -> None:
        self.measure = measure
        self.shape = tuple(int(n) for n in shape)
        self.policy = policy
        self.scenario = scenario
        self.progress = progress or (lambda event: None)
        self.wave_hits = wave_hits or (lambda: None)
        self.snapshots = snapshots

    def run(self) -> MapData:
        state = SweepState(shape=self.shape)
        parts: list[MapData] = []
        start = time.monotonic()
        while True:
            wave = self.policy.next_wave(state)
            wave = sorted({int(c) for c in wave} - state.measured)
            if not wave:
                break
            part = self.measure(wave)
            parts.append(part)
            state.measured.update(wave)
            state.round_index += 1
            state.mapdata = self._combined(parts)
            if self.policy.multi_round:
                self.progress(
                    ProgressEvent(
                        scenario=self.scenario,
                        done=len(state.measured),
                        total=state.n_cells,
                        elapsed=time.monotonic() - start,
                        kind="round",
                        round_index=state.round_index,
                        wave_cells=len(wave),
                        cache_hits=self.wave_hits(),
                        snapshot=state.mapdata if self.snapshots else None,
                    )
                )
        if state.mapdata is None:
            raise ExperimentError(
                f"policy {self.policy.name!r} proposed no cell to measure"
            )
        result = state.mapdata
        extra = self.policy.result_meta(state)
        if extra:
            result.meta.update(extra)
        return result

    @staticmethod
    def _combined(parts: list[MapData]) -> MapData:
        """Merge parts (sorted by first cell, so order cannot matter);
        a lone already-complete part passes through untouched."""
        if len(parts) == 1 and not parts[0].is_partial:
            return parts[0]
        ordered = sorted(
            parts,
            key=lambda part: (
                int(part.filled_cells[0]) if part.filled_cells.size else -1
            ),
        )
        return MapData.merge(ordered)
