"""Hand-rolled SVG rendering for curves and heat maps.

Produces standalone, valid SVG 1.1 documents: log-log line charts for the
1-D maps (Figs 1-2) and bucket-colored heat maps for the 2-D maps
(Figs 4-9), each with axes, tick labels, and a legend.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import VisualizationError
from repro.viz.colormap import (
    CATEGORICAL_PALETTE,
    CENSORED_RGB,
    RGB,
    CategoricalScale,
    DiscreteScale,
    _cell_colors,
)


def _escape(text: str) -> str:
    """Escape ``&``, ``>`` and ``<`` for SVG character data, ampersand
    first (what ``xml.sax.saxutils.escape`` does, without importing the
    ``urllib`` and ``http`` modules it pulls in)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _rgb(color: RGB) -> str:
    return f"rgb({color[0]},{color[1]},{color[2]})"


class SvgDocument:
    """Accumulates SVG elements and serializes a valid document."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise VisualizationError("SVG dimensions must be positive")
        self.width = width
        self.height = height
        self._elements: list[str] = []

    def rect(
        self,
        x: float,
        y: float,
        w: float,
        h: float,
        fill: RGB,
        stroke: RGB | None = None,
    ) -> None:
        stroke_attr = (
            f' stroke="{_rgb(stroke)}" stroke-width="0.5"' if stroke else ""
        )
        self._elements.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{_rgb(fill)}"{stroke_attr}/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float) -> None:
        self._elements.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="rgb(0,0,0)" stroke-width="1.0"/>'
        )

    def polyline(self, points: list[tuple[float, float]], color: RGB) -> None:
        if len(points) < 2:
            return
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self._elements.append(
            f'<polyline points="{path}" fill="none" stroke="{_rgb(color)}" '
            'stroke-width="2.0"/>'
        )

    def circle(self, x: float, y: float, r: float, color: RGB) -> None:
        self._elements.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{_rgb(color)}"/>'
        )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: int = 12,
        anchor: str = "start",
    ) -> None:
        self._elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="rgb(0,0,0)">{_escape(content)}</text>'
        )

    def to_string(self) -> str:
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Powers of ten spanning [lo, hi]."""
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0**e for e in range(start, stop + 1)]


def _log_extents(
    xs: np.ndarray, series: dict[str, np.ndarray]
) -> tuple[float, float, float, float]:
    """``(x_lo, x_hi, y_lo, y_hi)`` of a log-log plot of the series.

    The y range spans the finite positive values (censored points are
    not drawn); a flat series gets a factor of two of room either way.
    """
    if not series:
        raise VisualizationError("a curve plot needs at least one series")
    finite = np.concatenate(
        [
            values[np.isfinite(values) & (values > 0)]
            for values in map(np.asarray, series.values())
        ]
    )
    if finite.size == 0:
        raise VisualizationError("no finite positive values to plot")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 2, y_hi * 2
    return float(xs.min()), float(xs.max()), y_lo, y_hi


def _log_fraction(value: float, lo: float, hi: float) -> float:
    """Where ``value`` falls between ``lo`` (0) and ``hi`` (1), in log10."""
    return (math.log10(value) - math.log10(lo)) / (
        math.log10(hi) - math.log10(lo)
    )


def curves_svg(
    xs: np.ndarray,
    series: dict[str, np.ndarray],
    title: str,
    x_label: str = "selectivity",
    y_label: str = "seconds",
) -> str:
    """Log-log multi-series line chart (the Fig 1 / Fig 2 style).

    NaN values (censored measurements) break the polyline, reproducing the
    paper's truncated traditional-index-scan curve.
    """
    xs = np.asarray(xs, dtype=float)
    x_lo, x_hi, y_lo, y_hi = _log_extents(xs, series)
    width, height = 760, 470
    margin_left, margin_right, margin_top, margin_bottom = 70, 170, 40, 50
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    def px(x: float) -> float:
        # Multiply before dividing, as every committed SVG digest was.
        return margin_left + plot_w * (math.log10(x) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)
        )

    def py(y: float) -> float:
        return margin_top + plot_h * (1 - _log_fraction(y, y_lo, y_hi))

    doc = SvgDocument(width, height)
    doc.text(width / 2, 22, title, size=15, anchor="middle")
    # Axes frame and ticks.
    doc.line(margin_left, margin_top, margin_left, margin_top + plot_h)
    doc.line(
        margin_left, margin_top + plot_h, margin_left + plot_w, margin_top + plot_h
    )
    for tick in _log_ticks(x_lo, x_hi):
        if x_lo <= tick <= x_hi:
            x = px(tick)
            doc.line(x, margin_top + plot_h, x, margin_top + plot_h + 4)
            doc.text(x, margin_top + plot_h + 18, f"{tick:.0e}", size=10, anchor="middle")
    for tick in _log_ticks(y_lo, y_hi):
        if y_lo <= tick <= y_hi:
            y = py(tick)
            doc.line(margin_left - 4, y, margin_left, y)
            doc.text(margin_left - 8, y + 4, f"{tick:g}", size=10, anchor="end")
    doc.text(margin_left + plot_w / 2, height - 12, x_label, size=12, anchor="middle")
    doc.text(16, margin_top + plot_h / 2, y_label, size=12, anchor="middle")

    for s_index, (label, values) in enumerate(series.items()):
        color = CATEGORICAL_PALETTE[s_index % len(CATEGORICAL_PALETTE)]
        values = np.asarray(values, dtype=float)
        segment: list[tuple[float, float]] = []
        for x, y in zip(xs, values):
            if np.isfinite(y) and y > 0:
                segment.append((px(float(x)), py(float(y))))
            else:
                doc.polyline(segment, color)
                segment = []
        doc.polyline(segment, color)
        for x, y in zip(xs, values):
            if np.isfinite(y) and y > 0:
                doc.circle(px(float(x)), py(float(y)), 2.4, color)
        legend_y = margin_top + 16 * s_index
        doc.rect(width - margin_right + 12, legend_y - 9, 12, 12, color)
        doc.text(width - margin_right + 30, legend_y + 1, label, size=11)
    return doc.to_string()


#: Side of one heat-map cell, in SVG units.
_CELL = 26


def _heatmap_frame(
    doc: SvgDocument,
    nx: int,
    ny: int,
    margin_left: int,
    margin_top: int,
    x_tick_labels: list[str],
    y_tick_labels: list[str],
    x_label: str,
    y_label: str,
) -> None:
    """Tick labels and axis titles shared by all heat-map styles."""
    cell = _CELL
    for ix in range(0, nx, max(1, nx // 8)):
        doc.text(
            margin_left + ix * cell + cell / 2,
            margin_top + ny * cell + 16,
            x_tick_labels[ix],
            size=10,
            anchor="middle",
        )
    for iy in range(0, ny, max(1, ny // 8)):
        doc.text(
            margin_left - 6,
            margin_top + (ny - 1 - iy) * cell + cell / 2 + 4,
            y_tick_labels[iy],
            size=10,
            anchor="end",
        )
    doc.text(
        margin_left + nx * cell / 2,
        margin_top + ny * cell + 40,
        x_label,
        size=12,
        anchor="middle",
    )
    doc.text(18, margin_top + ny * cell / 2, y_label, size=12, anchor="middle")


def _heatmap_legend(
    doc: SvgDocument,
    scale: DiscreteScale | CategoricalScale,
    legend_x: int,
    margin_top: int,
    censored_row: bool,
) -> None:
    """One legend row per scale entry, optionally plus the censored row."""
    doc.text(legend_x, margin_top - 6, scale.title, size=12)
    entries = list(scale.legend_entries())
    for e_index, (rgb, label) in enumerate(entries):
        y = margin_top + e_index * 22
        doc.rect(legend_x, y, 16, 16, rgb, stroke=(150, 150, 150))
        doc.text(legend_x + 24, y + 12, label, size=11)
    if censored_row:
        censored_y = margin_top + len(entries) * 22
        doc.rect(legend_x, censored_y, 16, 16, CENSORED_RGB, stroke=(150, 150, 150))
        doc.text(legend_x + 24, censored_y + 12, "censored (over budget)", size=11)


def _heatmap_document(
    grid: np.ndarray,
    scale: DiscreteScale | CategoricalScale,
    title: str,
    x_tick_labels: list[str],
    y_tick_labels: list[str],
    x_label: str,
    y_label: str,
    legend_w: int,
    censored_row: bool,
) -> str:
    """The heat-map document both public styles share: cells, frame, legend."""
    colors = _cell_colors(grid, scale)
    ny, nx = colors.shape[:2]
    cells = colors.tolist()
    if len(x_tick_labels) != nx or len(y_tick_labels) != ny:
        raise VisualizationError("tick label counts must match the grid")
    cell = _CELL
    margin_left, margin_top = 80, 46
    width = margin_left + nx * cell + legend_w
    height = margin_top + ny * cell + 60
    doc = SvgDocument(width, height)
    doc.text((margin_left + nx * cell) / 2 + 20, 24, title, size=15, anchor="middle")
    for ix in range(nx):
        for iy in range(ny):
            row = ny - 1 - iy
            doc.rect(
                margin_left + ix * cell,
                margin_top + row * cell,
                cell,
                cell,
                cells[row][ix],
                stroke=(230, 230, 230),
            )
    _heatmap_frame(
        doc, nx, ny, margin_left, margin_top,
        x_tick_labels, y_tick_labels, x_label, y_label,
    )
    _heatmap_legend(
        doc, scale, margin_left + nx * cell + 24, margin_top, censored_row
    )
    return doc.to_string()


def heatmap_svg(
    grid: np.ndarray,
    scale: DiscreteScale,
    title: str,
    x_tick_labels: list[str],
    y_tick_labels: list[str],
    x_label: str = "selectivity A",
    y_label: str = "selectivity B",
) -> str:
    """Bucket-colored 2-D map (the Fig 4-9 style), NaN cells white.

    ``grid[ix, iy]``: ix runs along the x axis (left->right), iy along the
    y axis (bottom->top), matching the paper's orientation.  One tick
    label per grid line, already rendered (``2^e`` for selectivities,
    plain values for error magnitudes, memory budgets, ...).
    """
    return _heatmap_document(
        grid, scale, title, x_tick_labels, y_tick_labels, x_label, y_label,
        legend_w=230, censored_row=True,
    )


def categorical_heatmap_svg(
    indices: np.ndarray,
    scale: CategoricalScale,
    title: str,
    x_tick_labels: list[str],
    y_tick_labels: list[str],
    x_label: str = "selectivity",
    y_label: str = "",
) -> str:
    """Category-colored 2-D map (choice maps): exact index lookups.

    ``indices[ix, iy]`` are indices into the scale's category inventory;
    negative entries render as "no choice" white cells.  Orientation
    matches :func:`heatmap_svg`.
    """
    return _heatmap_document(
        indices, scale, title, x_tick_labels, y_tick_labels, x_label, y_label,
        legend_w=250, censored_row=False,
    )
