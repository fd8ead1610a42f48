"""Service-facing rendering: one map + plan + format -> typed bytes.

The figure helpers in :mod:`repro.viz.figures` return SVG strings or
write files; HTTP responses need ``(content type, bytes)``.  This module
is that adapter — picking curve charts for 1-D maps and heat maps for
2-D maps, and refusing (loudly, with a
:class:`~repro.errors.VisualizationError` the service maps to a 400)
combinations that cannot render, such as a PNG of a 1-D map.
"""

from __future__ import annotations

from repro.core.mapdata import MapData
from repro.errors import VisualizationError
from repro.viz.colormap import ABSOLUTE_TIME_SCALE
from repro.viz.figures import absolute_curves, grid_picture

#: Render format -> HTTP content type.
MEDIA_TYPES = {
    "svg": "image/svg+xml",
    "png": "image/png",
    "json": "application/json",
}


def render_map(mapdata: MapData, plan_id: str, fmt: str) -> tuple[str, bytes]:
    """Render one plan's view of a map as ``(content_type, payload)``.

    2-D maps render as absolute-cost heat maps (Fig 4/5 style) in SVG or
    PNG; 1-D maps render as log-log cost curves (Fig 1 style), which
    exist only as SVG.
    """
    if fmt not in ("svg", "png"):
        raise VisualizationError(
            f"unknown render format {fmt!r}; known: svg, png"
        )
    if plan_id not in mapdata.plan_ids:
        raise VisualizationError(
            f"unknown plan {plan_id!r}; map has {mapdata.plan_ids}"
        )
    title = f"{mapdata.meta.get('scenario', 'map')}: {plan_id}"
    if mapdata.is_2d:
        picture = grid_picture(
            mapdata, mapdata.times_for(plan_id), ABSOLUTE_TIME_SCALE, title, fmt
        )
        return (
            MEDIA_TYPES[fmt],
            picture if fmt == "png" else picture.encode("utf-8"),
        )
    if fmt == "png":
        raise VisualizationError(
            "PNG rendering needs a 2-D map; 1-D maps render as SVG curves"
        )
    return (
        MEDIA_TYPES["svg"],
        absolute_curves(mapdata, title, plan_ids=[plan_id]).encode("utf-8"),
    )
