"""High-level figure rendering from :class:`~repro.core.mapdata.MapData`.

One function per paper-figure *style*; the bench harness and examples
combine them with the right sweeps to regenerate Figures 1-10.
Every function returns the artifact as a string/bytes and can also write
it to disk.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.choice import ChoiceMap
from repro.core.mapdata import MapAxis, MapData
from repro.core.maps import censored_to_nan, quotient_for, relative_to_best
from repro.errors import VisualizationError
from repro.viz.colormap import (
    ABSOLUTE_TIME_SCALE,
    RELATIVE_FACTOR_SCALE,
    CategoricalScale,
    ColorBucket,
    DiscreteScale,
    _cell_colors,
)
from repro.viz.png import encode_png, rasterize_grid, save_png
from repro.viz.svg import categorical_heatmap_svg, curves_svg, heatmap_svg


def _heatmap_labels(mapdata: MapData) -> tuple[str, str]:
    """Axis labels for a 2-D map: predicate columns or axis names.

    Selectivity maps carry their predicate columns in meta; other
    scenarios (joins, sort spills, ...) label by their axis names.
    """
    if "a_column" in mapdata.meta or "b_column" in mapdata.meta:
        return (
            f"selectivity {mapdata.meta.get('a_column', 'A')}",
            f"selectivity {mapdata.meta.get('b_column', 'B')}",
        )
    x_axis, y_axis = mapdata.axes[:2]
    return x_axis.name, y_axis.name


def absolute_curves(
    mapdata: MapData,
    title: str,
    plan_ids: list[str] | None = None,
    path: str | Path | None = None,
) -> str:
    """Fig 1 style: absolute cost vs. selectivity, log-log."""
    if mapdata.is_2d:
        raise VisualizationError("absolute_curves needs a 1-D map")
    plan_ids = plan_ids or mapdata.plan_ids
    series = {plan_id: mapdata.times_for(plan_id) for plan_id in plan_ids}
    return _written(curves_svg(mapdata.x_achieved, series, title=title), path)


def relative_curves(
    mapdata: MapData,
    title: str,
) -> str:
    """Fig 2 style: cost relative to the best plan at each point."""
    if mapdata.is_2d:
        raise VisualizationError("relative_curves needs a 1-D map")
    series = dict(
        zip(mapdata.plan_ids, censored_to_nan(relative_to_best(mapdata)))
    )
    return curves_svg(
        mapdata.x_achieved, series, title=title, y_label="factor of best plan"
    )


def grid_picture(
    mapdata: MapData | ChoiceMap,
    grid: np.ndarray,
    scale: DiscreteScale,
    title: str,
    fmt: str,
) -> str | bytes:
    """One 2-D grid of a map, as SVG text (``"svg"``) or PNG bytes (``"png"``).

    The SVG is labelled and ticked by the map's first two axes; the PNG
    is the bare cells.  Both encode the same colored grid, so every
    front door that writes a map's picture pair — the figure functions,
    the scenario CLI, the service's ``/render`` — calls this once per
    format.  ``mapdata`` is whatever owns the grid's axes: a
    :class:`MapData` or a :class:`ChoiceMap`.
    """
    if fmt == "png":
        return encode_png(heatmap_png_pixels(grid, scale))
    x_axis, y_axis = mapdata.axes[:2]
    x_label, y_label = _heatmap_labels(mapdata)
    return heatmap_svg(
        grid,
        scale,
        title,
        _axis_tick_labels(x_axis),
        _axis_tick_labels(y_axis),
        x_label=x_label,
        y_label=y_label,
    )


def _written(svg: str, path: str | Path | None) -> str:
    if path is not None:
        Path(path).write_text(svg)
    return svg


def absolute_heatmap(
    mapdata: MapData,
    plan_id: str,
    title: str,
    path: str | Path | None = None,
) -> str:
    """Fig 4 / Fig 5 style: one plan's absolute cost over a 2-D grid."""
    grid = _require_2d(mapdata).times_for(plan_id)
    return _written(
        grid_picture(mapdata, grid, ABSOLUTE_TIME_SCALE, title, "svg"), path
    )


def relative_heatmap(
    mapdata: MapData,
    plan_id: str,
    title: str,
    baseline_ids: list[str] | None = None,
    path: str | Path | None = None,
) -> str:
    """Fig 7/8/9 style: one plan's factor-of-best over a 2-D grid."""
    grid = censored_to_nan(
        quotient_for(_require_2d(mapdata), plan_id, baseline_ids)
    )
    return _written(
        grid_picture(mapdata, grid, RELATIVE_FACTOR_SCALE, title, "svg"), path
    )


def counts_heatmap(
    counts: np.ndarray,
    mapdata: MapData,
    title: str,
    path: str | Path | None = None,
) -> str:
    """Fig 10 style: number of optimal plans per cell.

    Uses a small categorical scale built on the fly (1, 2-3, 4-7, 8+).
    """
    scale = DiscreteScale(
        [
            ColorBucket(0.0, 1.5, (213, 43, 30), "1 optimal plan"),
            ColorBucket(1.5, 3.5, (247, 148, 29), "2-3 optimal plans"),
            ColorBucket(3.5, 7.5, (140, 198, 63), "4-7 optimal plans"),
            ColorBucket(7.5, 64.0, (0, 158, 62), "8+ optimal plans"),
        ],
        title="Plans optimal within tolerance",
    )
    x_axis, y_axis = _require_2d(mapdata).axes[:2]
    svg = heatmap_svg(
        counts,
        scale,
        title,
        _axis_tick_labels(x_axis),
        _axis_tick_labels(y_axis),
    )
    return _written(svg, path)


def _axis_tick_labels(axis: MapAxis) -> list[str]:
    """Human tick labels for one axis: log2 for selectivities, plain else.

    Selectivity axes (including the legacy synthesized ``x``/``y`` names)
    keep the paper's ``2^e`` rendering; other quantities — error
    magnitudes, memory budgets, row counts — print their plain values,
    and in particular never feed 0 into a logarithm.
    """
    values = axis.values
    log_scaled = axis.name.startswith("sel") or axis.name in ("x", "y")
    if log_scaled and values.size and np.all(values > 0):
        return [f"2^{np.log2(v):.0f}" for v in values]
    return [f"{v:g}" for v in values]


def plan_choice_scale(plan_ids: list[str]) -> CategoricalScale:
    """The shared plan-identity color scale for a set of choice panels.

    Build it once from the *full* inventory and pass it to every
    :func:`choice_heatmap` of a figure, so the same plan is the same
    color in every panel regardless of which plans each policy uses.
    """
    return CategoricalScale(plan_ids, "Chosen plan")


def choice_heatmap(
    choice: ChoiceMap,
    title: str,
    scale: CategoricalScale | None = None,
    path: str | Path | None = None,
) -> str:
    """Categorical map of which plan a policy picked at each cell."""
    if not choice.is_2d:
        raise VisualizationError("choice_heatmap needs a 2-D choice map")
    scale = scale or plan_choice_scale(choice.plan_ids)
    if scale.categories != choice.plan_ids:
        raise VisualizationError(
            "scale categories must match the choice map's plan inventory"
        )
    x_axis, y_axis = choice.axes
    svg = categorical_heatmap_svg(
        choice.choices,
        scale,
        title,
        _axis_tick_labels(x_axis),
        _axis_tick_labels(y_axis),
        x_label=x_axis.name,
        y_label=y_axis.name,
    )
    return _written(svg, path)


def regret_heatmap(
    choice: ChoiceMap,
    title: str,
    path: str | Path | None = None,
) -> str:
    """Factor-of-best map of a policy's chosen plans (white: undefined).

    Infinite regret (the policy picked a censored plan) falls into the
    scale's last bucket; cells where *no* plan has an uncensored
    measurement are NaN and render white.
    """
    if not choice.is_2d:
        raise VisualizationError("regret_heatmap needs a 2-D choice map")
    return _written(
        grid_picture(choice, choice.regret, RELATIVE_FACTOR_SCALE, title, "svg"),
        path,
    )


def choice_pictures(
    choice: ChoiceMap, label: str, scale: CategoricalScale
) -> tuple[str, str, bytes]:
    """One policy's panel: ``(choice SVG, regret SVG, regret PNG)``.

    ``scale`` is the figure's shared :func:`plan_choice_scale`; ``label``
    names the policy in both titles.
    """
    regret = f"Regret: {label}"
    return (
        choice_heatmap(choice, f"Plan choice: {label}", scale=scale),
        regret_heatmap(choice, regret),
        grid_picture(choice, choice.regret, RELATIVE_FACTOR_SCALE, regret, "png"),
    )


def heatmap_png_pixels(grid: np.ndarray, scale: DiscreteScale) -> np.ndarray:
    """Rasterize a 2-D grid to 16-pixel cells (paper orientation: y up)."""
    return rasterize_grid(_cell_colors(grid, scale))


def save_heatmap_png(
    grid: np.ndarray,
    scale: DiscreteScale,
    path: str | Path,
) -> None:
    """Rasterize and write a 2-D grid as PNG."""
    save_png(path, heatmap_png_pixels(grid, scale))


def _require_2d(mapdata: MapData) -> MapData:
    if not mapdata.is_2d:
        raise VisualizationError("this figure style needs a 2-D map")
    return mapdata
