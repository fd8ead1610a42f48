"""Terminal renderings of robustness maps.

The quickest way to *look* at a map: log-log curve plots and heat maps
drawn with characters, one density character per color bucket.  Useful in
tests, CI logs, and the examples' stdout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VisualizationError
from repro.viz.colormap import CENSORED_RGB, DiscreteScale, _cell_colors
from repro.viz.svg import _log_extents, _log_fraction

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
    x_lo, x_hi, y_lo, y_hi = _log_extents(xs, series)
    width, height = 72, 18
    grid = [[EMPTY_CHAR] * width for _ in range(height)]

    def col(x: float) -> int:
        f = _log_fraction(x, x_lo, x_hi)
        return min(width - 1, max(0, int(round(f * (width - 1)))))

    def row(y: float) -> int:
        f = _log_fraction(y, y_lo, y_hi)
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
    if scale.n_buckets > len(BUCKET_CHARS):
        raise VisualizationError("too many buckets for the character ramp")
    ramp = {bucket.rgb: char for bucket, char in zip(scale.buckets, BUCKET_CHARS)}
    ramp[CENSORED_RGB] = CENSORED_CHAR
    if len(ramp) != scale.n_buckets + 1:
        raise VisualizationError(
            "bucket colors must be distinct to read back as characters"
        )
    return "\n".join(
        "".join(ramp[tuple(rgb)] for rgb in row)
        for row in _cell_colors(grid, scale).tolist()
    )


def legend_ascii(scale: DiscreteScale) -> str:
    """Character-to-bucket legend for :func:`heatmap_ascii`."""
    lines = [scale.title]
    for b_index, bucket in enumerate(scale.buckets):
        lines.append(f"  {BUCKET_CHARS[b_index]}  {bucket.label}")
    lines.append(f"  {CENSORED_CHAR}  censored (over budget)")
    return "\n".join(lines)
