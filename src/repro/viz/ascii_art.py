"""Terminal renderings of robustness maps.

The quickest way to *look* at a map: log-log curve plots and heat maps
drawn with characters, one density character per color bucket.  Useful in
tests, CI logs, and the examples' stdout.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import VisualizationError
from repro.viz.colormap import DiscreteScale

#: One character per bucket, light to dark (index aligned with buckets).
BUCKET_CHARS = ".:-=+*#%@"
CENSORED_CHAR = "!"
EMPTY_CHAR = " "


def curve_ascii(
    xs: np.ndarray,
    series: dict[str, np.ndarray],
) -> str:
    """Log-log multi-series plot; series are marked 'a', 'b', 'c', ...."""
    xs = np.asarray(xs, dtype=float)
    if not series:
        raise VisualizationError("curve_ascii needs at least one series")
    width, height = 72, 18
    finite = np.concatenate(
        [values[np.isfinite(values) & (np.asarray(values) > 0)] for values in series.values()]
    )
    if finite.size == 0:
        raise VisualizationError("no finite positive values to plot")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 2, y_hi * 2
    x_lo, x_hi = float(xs.min()), float(xs.max())
    grid = [[EMPTY_CHAR] * width for _ in range(height)]

    def col(x: float) -> int:
        f = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        return min(width - 1, max(0, int(round(f * (width - 1)))))

    def row(y: float) -> int:
        f = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return min(height - 1, max(0, int(round((1 - f) * (height - 1)))))

    markers = "abcdefghijklmnopqrstuvwxyz"
    legend = []
    for s_index, (label, values) in enumerate(series.items()):
        marker = markers[s_index % len(markers)]
        legend.append(f"  {marker} = {label}")
        for x, y in zip(xs, np.asarray(values, dtype=float)):
            if np.isfinite(y) and y > 0:
                grid[row(float(y))][col(float(x))] = marker
    lines = ["".join(line_chars) for line_chars in grid]
    header = f"y: [{y_lo:.3g}, {y_hi:.3g}]s (log)   x: [{x_lo:.3g}, {x_hi:.3g}] (log)"
    return "\n".join([header, *lines, *legend])


def heatmap_ascii(grid: np.ndarray, scale: DiscreteScale) -> str:
    """Character heat map; rows printed top = highest y index."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise VisualizationError(f"heatmap needs a 2-D grid, got {grid.shape}")
    if scale.n_buckets > len(BUCKET_CHARS):
        raise VisualizationError("too many buckets for the character ramp")
    nx, ny = grid.shape
    lines = []
    for iy in reversed(range(ny)):
        row_chars = []
        for ix in range(nx):
            value = grid[ix, iy]
            if np.isnan(value):
                row_chars.append(CENSORED_CHAR)
            else:
                row_chars.append(BUCKET_CHARS[scale.bucket_index(float(value))])
        lines.append("".join(row_chars))
    return "\n".join(lines)


def legend_ascii(scale: DiscreteScale) -> str:
    """Character-to-bucket legend for :func:`heatmap_ascii`."""
    lines = [scale.title]
    for b_index, bucket in enumerate(scale.buckets):
        lines.append(f"  {BUCKET_CHARS[b_index]}  {bucket.label}")
    lines.append(f"  {CENSORED_CHAR}  censored (over budget)")
    return "\n".join(lines)
