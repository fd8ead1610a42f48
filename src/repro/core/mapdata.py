"""The measured cost cube behind every robustness map.

A :class:`MapData` holds, for each (plan, grid cell): the measured virtual
seconds, whether the measurement was censored by the cost budget, and per
cell the query's true result size and achieved axis values.  It is the
single exchange format between the sweep runner, the analysis modules,
the renderers, and the benches (JSON round-trip for caching).

Grids may span any number of axes, described by the ordered
:class:`MapAxis` list; ``x_targets`` / ``x_achieved`` / ``y_targets`` /
``y_achieved`` are views onto the first two axes for the 1-D/2-D
renderers and analysis modules.

A MapData may be *partial*: ``meta["cells"]`` lists the flat grid indices
that were actually measured.  Partial maps come out of chunked parallel
sweeps (recombined with :meth:`MapData.merge`) and out of adaptive
refinement sweeps, where unmeasured plateau cells are a final state, not
an intermediate one — :attr:`measured_mask` exposes the coverage and
:meth:`densify` produces the full-grid interpolation view the analysis
modules and renderers consume unchanged.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError

#: Entries (cells x measured points) per densify() distance block; keeps
#: peak memory bounded on large grids.  Module-level so tests can shrink
#: it to exercise the block boundaries on small maps.
DENSIFY_BLOCK_ENTRIES = 1 << 21


def floats_to_json(array: np.ndarray | None):
    """Nested lists with NaN as None and infinities as ``"inf"`` / ``"-inf"``
    (JSON has a literal for neither): the encoding of every map file."""
    if array is None:
        return None
    arr = np.asarray(array, dtype=float)
    obj = arr.astype(object)
    obj[np.isnan(arr)] = None
    obj[arr == np.inf] = "inf"
    obj[arr == -np.inf] = "-inf"
    return obj.tolist()


def floats_from_json(obj) -> np.ndarray | None:
    """Inverse of :func:`floats_to_json`, any nesting depth."""
    if obj is None:
        return None

    def walk(value):
        if isinstance(value, list):
            return [walk(item) for item in value]
        return np.nan if value is None else float(value)

    return np.asarray(walk(obj), dtype=float)


def cells_mask(cells, grid_shape: tuple[int, ...]) -> np.ndarray:
    """Bool grid: True at the listed flat cell indices (None: everywhere)."""
    mask = np.zeros(grid_shape, dtype=bool)
    if cells is None:
        mask[...] = True
    else:
        mask.reshape(-1)[np.asarray(list(cells), dtype=np.int64)] = True
    return mask


@dataclass(frozen=True)
class MapAxis:
    """One grid axis of a measured map: label, targets, achieved values.

    ``achieved`` is what the sweep actually hit (e.g. the achieved
    selectivity of the constructed predicate); ``None`` means the targets
    were hit exactly (memory budgets, input sizes, ...).
    """

    name: str
    targets: np.ndarray
    achieved: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "targets", np.asarray(self.targets, dtype=float)
        )
        if self.achieved is not None:
            achieved = np.asarray(self.achieved, dtype=float)
            if achieved.shape != self.targets.shape:
                raise ExperimentError(
                    f"axis {self.name!r}: achieved shape {achieved.shape} "
                    f"differs from targets shape {self.targets.shape}"
                )
            object.__setattr__(self, "achieved", achieved)

    @property
    def n_points(self) -> int:
        return int(self.targets.size)

    @property
    def values(self) -> np.ndarray:
        """Achieved values when known, targets otherwise."""
        return self.achieved if self.achieved is not None else self.targets

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "targets": floats_to_json(self.targets),
            "achieved": floats_to_json(self.achieved),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MapAxis":
        return cls(
            name=str(data["name"]),
            targets=floats_from_json(data["targets"]),
            achieved=floats_from_json(data.get("achieved")),
        )

    def matches(self, other: "MapAxis") -> bool:
        def same(a, b) -> bool:
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(np.asarray(a), np.asarray(b))

        return (
            self.name == other.name
            and same(self.targets, other.targets)
            and same(self.achieved, other.achieved)
        )


@dataclass
class MapData:
    """Measured costs for P plans over an N-D grid (typically 1-D/2-D)."""

    plan_ids: list[str]
    times: np.ndarray
    """Seconds, shape (P, *grid); NaN where censored."""

    aborted: np.ndarray
    """Bool, same shape as times: True where the budget censored the run."""

    rows: np.ndarray
    """True result size per cell, shape (*grid,)."""

    axes: list[MapAxis]
    """Ordered axis descriptions, one per grid dimension."""

    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.aborted = np.asarray(self.aborted, dtype=bool)
        if self.times.shape != self.aborted.shape:
            raise ExperimentError("times and aborted shapes differ")
        if self.times.shape[0] != len(self.plan_ids):
            raise ExperimentError(
                f"{len(self.plan_ids)} plans but times has "
                f"{self.times.shape[0]} slices"
            )
        if self.times.shape[1:] != np.asarray(self.rows).shape:
            raise ExperimentError("rows shape does not match grid shape")
        self.axes = list(self.axes)
        if len(self.axes) != self.times.ndim - 1:
            raise ExperimentError(
                f"{len(self.axes)} axes for a "
                f"{self.times.ndim - 1}-D grid"
            )
        for dim, axis in enumerate(self.axes):
            if axis.n_points != self.times.shape[1 + dim]:
                raise ExperimentError(
                    f"axis {axis.name!r} has {axis.n_points} points but "
                    f"grid dimension {dim} has {self.times.shape[1 + dim]}"
                )
        # Views onto the first two axes (1-D/2-D renderers and analyses,
        # and the four keys map files carried before axes had names).
        x, y = self.axes[0], self.axes[1] if len(self.axes) >= 2 else None
        self.x_targets, self.x_achieved = x.targets, x.values
        self.y_targets = None if y is None else y.targets
        self.y_achieved = None if y is None else y.values

    # ------------------------------------------------------------------

    @property
    def is_2d(self) -> bool:
        return self.times.ndim == 3

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.times.shape[1:]

    def axis(self, name: str) -> MapAxis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise ExperimentError(
            f"unknown axis {name!r}; have {[a.name for a in self.axes]}"
        )

    @property
    def n_plans(self) -> int:
        return len(self.plan_ids)

    def plan_index(self, plan_id: str) -> int:
        try:
            return self.plan_ids.index(plan_id)
        except ValueError:
            raise ExperimentError(
                f"unknown plan {plan_id!r}; have {self.plan_ids}"
            ) from None

    def times_for(self, plan_id: str) -> np.ndarray:
        """This plan's cost surface (NaN where censored)."""
        return self.times[self.plan_index(plan_id)]

    def subset(self, plan_ids: list[str]) -> "MapData":
        """A new MapData restricted to the given plans."""
        idx = [self.plan_index(p) for p in plan_ids]
        return MapData(
            plan_ids=list(plan_ids),
            times=self.times[idx].copy(),
            aborted=self.aborted[idx].copy(),
            rows=self.rows,
            meta=dict(self.meta),
            axes=list(self.axes),
        )

    # ------------------------------------------------------------------
    # partial maps and merging
    # ------------------------------------------------------------------

    @property
    def filled_cells(self) -> np.ndarray:
        """Flat indices of measured cells (all cells unless partial)."""
        return np.flatnonzero(cells_mask(self.meta.get("cells"), self.grid_shape))

    @property
    def is_partial(self) -> bool:
        return "cells" in self.meta

    @property
    def measured_mask(self) -> np.ndarray:
        """Bool grid: True where the cell was actually *measured*.

        Unlike :attr:`filled_cells` (cells holding data), this stays
        honest across :meth:`densify`: interpolated cells hold data but
        were never measured, and ``meta["measured_cells"]`` remembers so.
        """
        return cells_mask(
            self.meta.get("measured_cells", self.meta.get("cells")),
            self.grid_shape,
        )

    def measured_times(self, plan_id: str) -> np.ndarray:
        """One plan's cost surface restricted to measured cells.

        Interpolated (densified) or never-measured cells are NaN.  On a
        fully measured map this equals :meth:`times_for` exactly, so
        analyses that must not see interpolated values — e.g. the
        symmetry landmark, which an asymmetric fill pattern would skew —
        can use it unconditionally.
        """
        times = self.times_for(plan_id).copy()
        if self.is_partial or "measured_cells" in self.meta:
            times[~self.measured_mask] = np.nan
        return times

    def cell_records(self):
        """Yield ``(idx, plan_id, seconds, aborted, rows)`` per measurement.

        One tuple per (measured cell, plan): ``idx`` is the grid
        coordinate tuple, ``seconds`` is ``None`` where the budget
        censored the run (the map holds NaN there), ``rows`` the cell's
        oracle result size.  This is the write-back walk for the
        content-addressed cell store — plain python scalars only, so the
        records serialize canonically.  Densified maps restrict to the
        originally *measured* cells; interpolated fills are never stored.
        """
        shape = self.grid_shape
        rows = np.asarray(self.rows).reshape(-1)
        times = self.times.reshape(self.n_plans, -1)
        aborted = self.aborted.reshape(self.n_plans, -1)
        for cell in np.flatnonzero(self.measured_mask):
            idx = tuple(int(k) for k in np.unravel_index(int(cell), shape))
            for p, plan_id in enumerate(self.plan_ids):
                seconds = float(times[p, cell])
                yield (
                    idx,
                    plan_id,
                    None if np.isnan(seconds) else seconds,
                    bool(aborted[p, cell]),
                    int(rows[cell]),
                )

    def densify(self) -> "MapData":
        """Full-grid view of a partial map: nearest-measured-cell fill.

        Every unmeasured cell copies times, aborted flags, and rows from
        its nearest measured cell in index space.  Nearest-neighbor (not
        linear) interpolation is deliberate: adaptive refinement leaves
        cells unmeasured exactly where the map is flat, a censored
        neighbor stays censored instead of averaging into a fake finite
        cost, and measured cells pass through bit-identical.  Distance
        ties break on the candidate's sorted coordinate tuple first, so
        the fill of a symmetric measurement set is itself symmetric (the
        merge-join symmetry landmark survives densification), then on
        flat index — fully deterministic.

        The result is complete (no ``meta["cells"]``); the original
        coverage is preserved in ``meta["measured_cells"]`` and
        ``meta["densified"] = True``.  Complete maps return themselves.
        """
        if not self.is_partial:
            return self
        measured = self.filled_cells
        if measured.size == 0:
            raise ExperimentError("cannot densify a map with no measured cells")
        shape = self.grid_shape
        n_cells = int(np.prod(shape))
        all_coords = np.stack(
            np.unravel_index(np.arange(n_cells), shape), axis=1
        )
        meas_coords = all_coords[measured]
        # Composite integer key (distance, sorted coords, rank): strictly
        # ordered, overflow-safe for any grid this repo sweeps.
        sorted_coords = np.sort(meas_coords, axis=1)
        weights = np.array(
            [max(shape) ** i for i in range(len(shape))], dtype=np.int64
        )
        coord_key = sorted_coords @ weights[::-1]
        coord_span = int(coord_key.max()) + 1
        rank = np.arange(measured.size, dtype=np.int64)
        # Chunk the distance matrix so peak memory stays O(block x k)
        # instead of O(n_cells x k) — a 64x64 grid with thousands of
        # measured cells would otherwise allocate hundreds of MB.
        block = max(1, DENSIFY_BLOCK_ENTRIES // max(1, measured.size))
        nearest = np.empty(n_cells, dtype=np.int64)
        for lo in range(0, n_cells, block):
            coords = all_coords[lo : lo + block]
            deltas = coords[:, None, :] - meas_coords[None, :, :]
            dist2 = np.einsum("nkd,nkd->nk", deltas, deltas)
            key = (
                dist2.astype(np.int64) * coord_span + coord_key[None, :]
            ) * measured.size + rank[None, :]
            nearest[lo : lo + block] = measured[np.argmin(key, axis=1)]
        times = self.times.reshape(self.n_plans, -1)[:, nearest].reshape(
            self.times.shape
        )
        aborted = self.aborted.reshape(self.n_plans, -1)[:, nearest].reshape(
            self.aborted.shape
        )
        rows = np.asarray(self.rows).reshape(-1)[nearest].reshape(shape)
        meta = {k: v for k, v in self.meta.items() if k != "cells"}
        meta["measured_cells"] = [int(c) for c in measured]
        meta["densified"] = True
        return MapData(
            plan_ids=list(self.plan_ids),
            times=times,
            aborted=aborted,
            rows=rows,
            meta=meta,
            axes=list(self.axes),
        )

    @classmethod
    def merge(cls, parts: Sequence["MapData"]) -> "MapData":
        """Recombine partial maps (disjoint cell subsets of one grid).

        Every part must carry ``meta["cells"]``; the parts must agree on
        plan ids, grid shape, and axis arrays.  Cell subsets must be
        disjoint — **overlapping duplicate cells raise**
        :class:`ExperimentError` rather than last-write-winning, because
        a silent overwrite would let a buggy chunking hide measurements
        (and with deterministic sweeps, a legitimate duplicate cannot
        carry different data anyway).  Non-contiguous subsets are fine.
        The merged map covers the union of the parts' cells —
        ``meta["cells"]`` is dropped when the union is the full grid,
        kept (sorted) otherwise.
        """
        parts = list(parts)
        if not parts:
            raise ExperimentError("cannot merge zero map parts")
        first = parts[0]
        shape = first.grid_shape
        n_cells = int(np.prod(shape))

        times = np.full_like(first.times, np.nan)
        aborted = np.zeros_like(first.aborted)
        rows = np.zeros_like(np.asarray(first.rows))
        seen: set[int] = set()

        for part in parts:
            if "cells" not in part.meta:
                raise ExperimentError(
                    "merge needs partial maps (meta['cells'] missing)"
                )
            if part.plan_ids != first.plan_ids:
                raise ExperimentError(
                    f"plan ids differ across parts: {part.plan_ids} "
                    f"vs {first.plan_ids}"
                )
            if part.grid_shape != shape:
                raise ExperimentError(
                    f"grid shapes differ across parts: {part.grid_shape} "
                    f"vs {shape}"
                )
            if not all(
                ours.matches(theirs)
                for ours, theirs in zip(first.axes, part.axes)
            ):
                raise ExperimentError("axis arrays differ across parts")
            cells = [int(c) for c in part.meta["cells"]]
            overlap = seen.intersection(cells)
            if overlap:
                raise ExperimentError(
                    f"parts overlap on cells {sorted(overlap)}"
                )
            seen.update(cells)
            idx = np.unravel_index(np.asarray(cells, dtype=np.int64), shape)
            times[(slice(None), *idx)] = part.times[(slice(None), *idx)]
            aborted[(slice(None), *idx)] = part.aborted[(slice(None), *idx)]
            rows[idx] = np.asarray(part.rows)[idx]

        meta = {k: v for k, v in first.meta.items() if k != "cells"}
        if len(seen) != n_cells:
            meta["cells"] = sorted(seen)
        # Profiles cover the same disjoint cell subsets as the parts, so
        # their union is a plain dict union (cell overlap already raised).
        profiles: dict = {}
        for part in parts:
            profiles.update(part.meta.get("profiles", {}))
        if profiles:
            meta["profiles"] = profiles
        return cls(
            plan_ids=list(first.plan_ids),
            times=times,
            aborted=aborted,
            rows=rows,
            meta=meta,
            axes=list(first.axes),
        )

    # ------------------------------------------------------------------
    # serialization (JSON; NaN encoded as None)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "plan_ids": self.plan_ids,
            "times": floats_to_json(self.times),
            "aborted": self.aborted.tolist(),
            "rows": np.asarray(self.rows).tolist(),
            "x_targets": floats_to_json(self.x_targets),
            "x_achieved": floats_to_json(self.x_achieved),
            "y_targets": floats_to_json(self.y_targets),
            "y_achieved": floats_to_json(self.y_achieved),
            "axes": [axis.to_dict() for axis in self.axes],
            # Profiles are observability side-band, not map content:
            # excluding them keeps cached map JSON and golden fixtures
            # byte-identical whether tracing was on or off.
            "meta": {k: v for k, v in self.meta.items() if k != "profiles"},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MapData":
        if data.get("axes"):
            axes = [MapAxis.from_dict(axis) for axis in data["axes"]]
        else:
            # A file from before maps named their axes: "x" and "y".
            axes = [
                MapAxis(
                    name,
                    floats_from_json(data[f"{name}_targets"]),
                    floats_from_json(data.get(f"{name}_achieved")),
                )
                for name in ("x", "y")
                if data.get(f"{name}_targets") is not None
            ]
        return cls(
            plan_ids=list(data["plan_ids"]),
            times=floats_from_json(data["times"]),
            aborted=np.asarray(data["aborted"], dtype=bool),
            rows=np.asarray(data["rows"], dtype=np.int64),
            axes=axes,
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "MapData":
        return cls.from_dict(json.loads(Path(path).read_text()))
