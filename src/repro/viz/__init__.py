"""Visualization of robustness maps (SVG, PNG, ASCII; no matplotlib).

Includes the paper's two discrete color scales (Fig 3: absolute decades;
Fig 6: factor-of-best buckets), log-log curve charts (Figs 1-2), and
bucket-colored heat maps (Figs 4-10).
"""

from repro.viz.colormap import (
    ABSOLUTE_TIME_SCALE,
    CATEGORICAL_PALETTE,
    RELATIVE_FACTOR_SCALE,
    CENSORED_RGB,
    CategoricalScale,
    ColorBucket,
    DiscreteScale,
)
from repro.viz.ascii_art import curve_ascii, heatmap_ascii, legend_ascii
from repro.viz.svg import (
    SvgDocument,
    categorical_heatmap_svg,
    curves_svg,
    heatmap_svg,
)
from repro.viz.png import encode_png, save_png, rasterize_grid
from repro.viz.legend import legend_svg
from repro.viz.render import MEDIA_TYPES, render_map
from repro.viz.figures import (
    absolute_curves,
    relative_curves,
    absolute_heatmap,
    relative_heatmap,
    choice_heatmap,
    choice_pictures,
    counts_heatmap,
    grid_picture,
    heatmap_png_pixels,
    plan_choice_scale,
    regret_heatmap,
    save_heatmap_png,
)

__all__ = [
    "ABSOLUTE_TIME_SCALE",
    "CATEGORICAL_PALETTE",
    "RELATIVE_FACTOR_SCALE",
    "CENSORED_RGB",
    "CategoricalScale",
    "ColorBucket",
    "DiscreteScale",
    "curve_ascii",
    "heatmap_ascii",
    "legend_ascii",
    "SvgDocument",
    "categorical_heatmap_svg",
    "curves_svg",
    "heatmap_svg",
    "encode_png",
    "save_png",
    "rasterize_grid",
    "legend_svg",
    "absolute_curves",
    "relative_curves",
    "absolute_heatmap",
    "relative_heatmap",
    "choice_heatmap",
    "choice_pictures",
    "counts_heatmap",
    "grid_picture",
    "heatmap_png_pixels",
    "plan_choice_scale",
    "regret_heatmap",
    "save_heatmap_png",
    "MEDIA_TYPES",
    "render_map",
]
