"""Landmark detectors for robustness maps (§3.1, §4).

The paper reads maps through a small set of landmarks; the detectors
here cover four of them:

* **Monotonicity** — "fetching rows should become more expensive with
  additional rows; if cases exist in which fetching more rows is cheaper
  than fetching fewer rows, something is amiss."
* **Discontinuities** — §4's sort-spill cliff: cost jumps by a large
  factor between adjacent grid points.
* **Crossovers** — break-even points between plans (Fig 1's ~2^-11
  table-scan/index-scan break-even).
* **Symmetry** — merge-join maps should be symmetric in the two inputs
  (Fig 5); hash joins are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class Landmark:
    """One detected landmark on a map."""

    kind: str
    index: int
    x: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] at x={self.x:.3e}: {self.detail}"


def _validate_curve(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ExperimentError("curve needs matching 1-D xs and ys")
    if np.any(np.diff(xs) <= 0):
        raise ExperimentError("xs must be strictly increasing")
    return xs, ys


def monotonicity_violations(
    xs: np.ndarray, ys: np.ndarray, rel_tol: float = 0.02
) -> list[Landmark]:
    """Points where cost *decreases* as work increases (beyond tolerance)."""
    xs, ys = _validate_curve(xs, ys)
    landmarks = []
    for i in range(1, xs.size):
        if np.isnan(ys[i]) or np.isnan(ys[i - 1]):
            continue
        if ys[i] < ys[i - 1] * (1.0 - rel_tol):
            landmarks.append(
                Landmark(
                    "monotonicity",
                    i,
                    float(xs[i]),
                    f"cost fell {ys[i - 1]:.4g}s -> {ys[i]:.4g}s",
                )
            )
    return landmarks


def discontinuities(
    xs: np.ndarray, ys: np.ndarray, jump_factor: float = 3.0
) -> list[Landmark]:
    """Adjacent-point cost jumps exceeding ``jump_factor`` (spill cliffs)."""
    xs, ys = _validate_curve(xs, ys)
    if jump_factor <= 1.0:
        raise ExperimentError(f"jump_factor must exceed 1, got {jump_factor}")
    landmarks = []
    for i in range(1, xs.size):
        lo, hi = ys[i - 1], ys[i]
        if np.isnan(lo) or np.isnan(hi) or lo <= 0:
            continue
        if hi / lo >= jump_factor:
            landmarks.append(
                Landmark(
                    "discontinuity",
                    i,
                    float(xs[i]),
                    f"cost jumped {hi / lo:.2f}x ({lo:.4g}s -> {hi:.4g}s)",
                )
            )
    return landmarks


def crossovers(
    xs: np.ndarray, ys_a: np.ndarray, ys_b: np.ndarray
) -> list[Landmark]:
    """Break-even points where curve A and curve B swap the lead."""
    xs, ys_a = _validate_curve(xs, ys_a)
    _, ys_b = _validate_curve(xs, ys_b)
    landmarks = []
    diff = ys_a - ys_b
    for i in range(1, xs.size):
        left, right = diff[i - 1], diff[i]
        if np.isnan(left) or np.isnan(right):
            continue
        if left == 0 or np.sign(left) == np.sign(right):
            continue
        # Log-linear interpolation of the crossing selectivity.
        fraction = abs(left) / (abs(left) + abs(right))
        log_x = np.log2(xs[i - 1]) + fraction * (np.log2(xs[i]) - np.log2(xs[i - 1]))
        landmarks.append(
            Landmark(
                "crossover",
                i,
                float(2.0**log_x),
                f"curves swap lead between x={xs[i - 1]:.3e} and x={xs[i]:.3e}",
            )
        )
    return landmarks


def symmetry_score(grid: np.ndarray) -> float:
    """Relative asymmetry of a square 2-D map: 0 = perfectly symmetric.

    Computes mean|M - M^T| / mean|M| over cells finite in both
    orientations.  Merge-join maps score near 0; hash-join maps do not
    (Fig 5 and §3.2).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ExperimentError(f"symmetry needs a square 2-D grid, got {grid.shape}")
    transposed = grid.T
    valid = np.isfinite(grid) & np.isfinite(transposed)
    if not np.any(valid):
        raise ExperimentError("no cells finite in both orientations")
    denominator = np.abs(grid[valid]).mean()
    if denominator == 0:
        return 0.0
    return float(np.abs(grid[valid] - transposed[valid]).mean() / denominator)
