"""The paper's discrete color scales, plus a categorical scale.

Fig 3 maps *absolute* elapsed times to colors, "from green to red and
finally black ... with each color difference indicating an order of
magnitude".  Fig 6 does the same for *relative* factors, with a special
light-green bucket for "Factor 1" (optimal).

:class:`DiscreteScale` buckets *numeric* values; nominal data (which
plan a choice map picked per cell) gets the explicit
:class:`CategoricalScale` — a stable category-to-color assignment with
no fake numeric boundaries, built once from the full inventory so the
same plan keeps the same color across every panel of a figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import VisualizationError

RGB = tuple[int, int, int]

#: Distinct hues for categorical scales (plan identities, not magnitudes).
CATEGORICAL_PALETTE: list[RGB] = [
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
    (23, 190, 207),
]


@dataclass(frozen=True)
class ColorBucket:
    """One [lo, hi) value bucket with its color and legend label."""

    lo: float
    hi: float
    rgb: RGB
    label: str


class DiscreteScale:
    """Ordered list of buckets; values clamp to the first/last bucket."""

    def __init__(self, buckets: list[ColorBucket], title: str) -> None:
        if not buckets:
            raise VisualizationError("a scale needs at least one bucket")
        for left, right in zip(buckets, buckets[1:]):
            if left.hi != right.lo:
                raise VisualizationError(
                    f"buckets not contiguous: {left.hi} != {right.lo}"
                )
        self.buckets = buckets
        self.title = title

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    def bucket_index(self, value: float) -> int:
        """Index of the bucket containing ``value`` (clamped; inf -> last)."""
        if np.isnan(value):
            raise VisualizationError("cannot bucket NaN; mask censored cells first")
        if value == np.inf or value >= self.buckets[-1].hi:
            return len(self.buckets) - 1
        if value < self.buckets[0].lo:
            return 0
        for index, bucket in enumerate(self.buckets):
            if bucket.lo <= value < bucket.hi:
                return index
        return len(self.buckets) - 1  # pragma: no cover - unreachable

    def bucket_indices(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bucket_index` (NaN raises)."""
        values = np.asarray(values, dtype=float)
        if np.any(np.isnan(values)):
            raise VisualizationError("cannot bucket NaN; mask censored cells first")
        edges = np.asarray([bucket.lo for bucket in self.buckets[1:]])
        return np.clip(
            np.searchsorted(edges, values, side="right"), 0, self.n_buckets - 1
        )

    def color_for(self, value: float) -> RGB:
        return self.buckets[self.bucket_index(value)].rgb

    def colorize(self, values: np.ndarray) -> np.ndarray:
        """Map a value array to an RGB uint8 array (shape + (3,))."""
        indices = self.bucket_indices(values)
        palette = np.asarray([bucket.rgb for bucket in self.buckets], dtype=np.uint8)
        return palette[indices]

    def legend_entries(self) -> list[tuple[RGB, str]]:
        """(color, label) rows for legend renderers."""
        return [(bucket.rgb, bucket.label) for bucket in self.buckets]


class CategoricalScale:
    """Stable category-to-color assignment for nominal data.

    Categories are colored in the order given (first category, first
    palette color) — build the scale once from the *full* inventory and
    share it across subplots, and the same category is the same color in
    every panel.  Unlike :class:`DiscreteScale` there are no numeric
    bucket boundaries to abuse: lookups are exact, by a category's index
    in the inventory.
    """

    def __init__(self, categories: Sequence[str], title: str) -> None:
        categories = [str(category) for category in categories]
        if not categories:
            raise VisualizationError("a categorical scale needs categories")
        if len(set(categories)) != len(categories):
            raise VisualizationError(
                f"duplicate categories: {sorted(categories)}"
            )
        self.categories = categories
        self.title = title
        self._rgb = {
            category: self._palette_color(CATEGORICAL_PALETTE, index)
            for index, category in enumerate(categories)
        }

    @staticmethod
    def _palette_color(palette: Sequence[RGB], index: int) -> RGB:
        """Distinct color per category even past the palette's length.

        Wrapping around silently would alias two categories to one
        color; instead every wrap darkens the recycled hue, keeping the
        assignment injective (and deterministic) for any inventory size
        this repo draws.
        """
        base = palette[index % len(palette)]
        wraps = index // len(palette)
        if wraps == 0:
            return base
        factor = 0.62**wraps
        return (
            int(base[0] * factor),
            int(base[1] * factor),
            int(base[2] * factor),
        )

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def colorize_indices(self, indices: np.ndarray) -> np.ndarray:
        """Map an integer index array to RGB uint8 (shape + (3,))."""
        indices = np.asarray(indices)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.n_categories
        ):
            raise VisualizationError("category index out of range")
        palette = np.asarray(
            [self._rgb[category] for category in self.categories],
            dtype=np.uint8,
        )
        return palette[indices]

    def legend_entries(self) -> list[tuple[RGB, str]]:
        """(color, label) rows for legend renderers."""
        return [
            (self._rgb[category], category) for category in self.categories
        ]


#: Color used for cells whose measurement was censored by the budget.
CENSORED_RGB: RGB = (255, 255, 255)

#: Fig 3 — absolute execution time, one bucket per decade of seconds.
ABSOLUTE_TIME_SCALE = DiscreteScale(
    [
        ColorBucket(1e-3, 1e-2, (0, 158, 62), "0.001-0.01 seconds"),
        ColorBucket(1e-2, 1e-1, (140, 198, 63), "0.01-0.1 seconds"),
        ColorBucket(1e-1, 1e0, (255, 221, 21), "0.1-1 seconds"),
        ColorBucket(1e0, 1e1, (247, 148, 29), "1-10 seconds"),
        ColorBucket(1e1, 1e2, (213, 43, 30), "10-100 seconds"),
        ColorBucket(1e2, 1e3, (26, 26, 26), "100-1000 seconds"),
    ],
    title="Execution time",
)

#: Fig 6 — performance relative to the best plan, factor buckets.
RELATIVE_FACTOR_SCALE = DiscreteScale(
    [
        ColorBucket(1.0, 1.02, (186, 228, 153), "Factor 1"),
        ColorBucket(1.02, 1e1, (120, 198, 83), "Factor 1-10"),
        ColorBucket(1e1, 1e2, (255, 221, 21), "Factor 10-100"),
        ColorBucket(1e2, 1e3, (247, 148, 29), "Factor 100 - 1,000"),
        ColorBucket(1e3, 1e4, (213, 43, 30), "Factor 1,000 - 10,000"),
        ColorBucket(1e4, 1e5, (26, 26, 26), "Factor 10,000 - 100,000"),
    ],
    title="Performance relative to best plan",
)


def _cell_colors(
    grid: np.ndarray, scale: DiscreteScale | CategoricalScale
) -> np.ndarray:
    """The one colour pass: ``grid[ix, iy]`` to ``(ny, nx, 3)`` uint8 cells.

    Row 0 is the highest y index (the paper's orientation, y up), so the
    SVG rect loop, the PNG rasterizer and the ASCII ramp all encode the
    same array.  Censored cells — NaN under a :class:`DiscreteScale`, a
    negative index under a :class:`CategoricalScale` — are
    :data:`CENSORED_RGB`; every other cell is the color of its bucket or
    category, as :meth:`legend_entries` lists them.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise VisualizationError(f"heatmap needs a 2-D grid, got {grid.shape}")
    if isinstance(scale, CategoricalScale):
        grid = grid.astype(np.int64)
        censored, colorize = grid < 0, scale.colorize_indices
    else:
        grid = grid.astype(float)
        censored, colorize = np.isnan(grid), scale.colorize
    colors = np.empty((*grid.shape, 3), dtype=np.uint8)
    colors[censored] = CENSORED_RGB
    colors[~censored] = colorize(grid[~censored])
    return colors.transpose(1, 0, 2)[::-1]

