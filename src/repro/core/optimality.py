"""Optimality sets and regions (§3.4, Fig 10).

"Most points in the parameter space have multiple optimal plans (within
0.1 sec measurement error).  In fact, rather than looking at optimality,
one should neglect all small differences."  Optimality is therefore
tolerance-based: a plan is optimal at a point when its cost is within
``tol_abs`` seconds *or* ``tol_rel`` fraction of the best cost.

Regions of optimality (their size, shape, and especially contiguity) are
the paper's suggested lens on implementation idiosyncrasies: "chances are
good that some implementation idiosyncrasy rather than the algorithm
itself causes the irregular shape".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapdata import MapData
from repro.core.maps import best_times
from repro.errors import ExperimentError


def optimal_mask(
    mapdata: MapData,
    tol_abs: float = 0.0,
    tol_rel: float = 0.0,
    plan_ids: list[str] | None = None,
    baseline_ids: list[str] | None = None,
) -> np.ndarray:
    """Boolean (P, *grid): plan optimal-within-tolerance at each cell.

    ``plan_ids`` selects which plans are masked (default all);
    ``baseline_ids`` selects which plans define "best" (default: the
    masked set itself).
    """
    data = mapdata if plan_ids is None else mapdata.subset(plan_ids)
    best = (
        best_times(mapdata, baseline_ids)
        if baseline_ids is not None
        else best_times(data)
    )
    threshold = best + tol_abs + best * tol_rel
    with np.errstate(invalid="ignore"):
        mask = data.times <= threshold
    return np.where(np.isnan(data.times), False, mask)


def optimal_counts(
    mapdata: MapData,
    tol_abs: float = 0.0,
    tol_rel: float = 0.0,
) -> np.ndarray:
    """Per-cell count of plans optimal within tolerance (Fig 10)."""
    return optimal_mask(mapdata, tol_abs, tol_rel).sum(axis=0)


@dataclass(frozen=True)
class RegionStats:
    """Shape statistics of one plan's optimality region on a 2-D grid."""

    n_cells: int
    n_components: int
    largest_component: int
    area_fraction: float
    bbox_fill: float
    """Cells / bounding-box area of the largest component (1.0 = solid block)."""

    @property
    def contiguous(self) -> bool:
        return self.n_components <= 1


def regions_of(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """4-connected components of a 2-D boolean mask, largest first."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ExperimentError(f"regions need a 2-D mask, got shape {mask.shape}")
    visited = np.zeros_like(mask, dtype=bool)
    components: list[set[tuple[int, int]]] = []
    nx, ny = mask.shape
    for sx in range(nx):
        for sy in range(ny):
            if not mask[sx, sy] or visited[sx, sy]:
                continue
            stack = [(sx, sy)]
            visited[sx, sy] = True
            component: set[tuple[int, int]] = set()
            while stack:
                x, y = stack.pop()
                component.add((x, y))
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    px, py = x + dx, y + dy
                    if 0 <= px < nx and 0 <= py < ny and mask[px, py] and not visited[px, py]:
                        visited[px, py] = True
                        stack.append((px, py))
            components.append(component)
    components.sort(key=len, reverse=True)
    return components


def region_stats(mask: np.ndarray) -> RegionStats:
    """Summary shape statistics for a plan's 2-D optimality mask."""
    mask = np.asarray(mask)
    components = regions_of(mask)
    n_cells = int(mask.sum())
    if not components:
        return RegionStats(0, 0, 0, 0.0, 0.0)
    largest = components[0]
    xs = [x for x, _y in largest]
    ys = [y for _x, y in largest]
    bbox_area = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    return RegionStats(
        n_cells=n_cells,
        n_components=len(components),
        largest_component=len(largest),
        area_fraction=n_cells / mask.size,
        bbox_fill=len(largest) / bbox_area,
    )
