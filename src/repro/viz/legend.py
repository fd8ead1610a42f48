"""Standalone color-code legends (the paper's Figures 3 and 6).

The paper devotes two figures purely to its color scales; these renderers
regenerate them as SVG artifacts.  Any scale exposing
``legend_entries()`` and ``title`` renders — the numeric
:class:`~repro.viz.colormap.DiscreteScale` and the nominal
:class:`~repro.viz.colormap.CategoricalScale` (plan identities of the
choice maps) alike.
"""

from __future__ import annotations

from repro.viz.colormap import CategoricalScale, DiscreteScale
from repro.viz.svg import SvgDocument

AnyScale = DiscreteScale | CategoricalScale


def legend_svg(scale: AnyScale) -> str:
    """Vertical swatch column with labels, like the paper's Fig 3 / Fig 6."""
    entries = scale.legend_entries()
    row_h, swatch = 30, 20
    label_px = max(len(label) for _rgb, label in entries) * 7
    width = max(330, 16 + swatch + 12 + label_px + 16)
    height = 40 + row_h * len(entries)
    doc = SvgDocument(width, height)
    doc.text(16, 24, scale.title, size=14)
    for index, (rgb, label) in enumerate(entries):
        y = 40 + index * row_h
        doc.rect(16, y, swatch, swatch, rgb, stroke=(120, 120, 120))
        doc.text(16 + swatch + 12, y + swatch - 5, label, size=12)
    return doc.to_string()

