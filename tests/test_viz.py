"""Tests for color scales, PNG/SVG/ASCII renderers, and figure helpers."""

import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VisualizationError
from repro.viz import (
    ABSOLUTE_TIME_SCALE,
    RELATIVE_FACTOR_SCALE,
    ColorBucket,
    DiscreteScale,
    curve_ascii,
    curves_svg,
    encode_png,
    heatmap_ascii,
    heatmap_svg,
    legend_ascii,
    legend_svg,
    rasterize_grid,
)
from repro.viz.figures import heatmap_png_pixels


# ---------------------------------------------------------------------------
# color scales
# ---------------------------------------------------------------------------


def test_absolute_scale_bucketing():
    scale = ABSOLUTE_TIME_SCALE
    assert scale.bucket_index(0.005) == 0
    assert scale.bucket_index(0.5) == 2
    assert scale.bucket_index(500.0) == 5
    # Clamping at both ends.
    assert scale.bucket_index(1e-9) == 0
    assert scale.bucket_index(1e9) == 5
    assert scale.bucket_index(float("inf")) == 5


def test_relative_scale_factor_one_special():
    scale = RELATIVE_FACTOR_SCALE
    assert scale.bucket_index(1.0) == 0
    assert scale.bucket_index(1.01) == 0
    assert scale.bucket_index(1.5) == 1
    assert scale.bucket_index(50_000) == 5


def test_bucket_indices_vectorized_matches_scalar():
    scale = ABSOLUTE_TIME_SCALE
    values = np.array([1e-4, 0.005, 0.05, 0.5, 5.0, 50.0, 500.0, 5e4])
    vectorized = scale.bucket_indices(values)
    scalar = [scale.bucket_index(float(v)) for v in values]
    assert vectorized.tolist() == scalar


def test_nan_bucketing_rejected():
    with pytest.raises(VisualizationError):
        ABSOLUTE_TIME_SCALE.bucket_index(float("nan"))
    with pytest.raises(VisualizationError):
        ABSOLUTE_TIME_SCALE.bucket_indices(np.array([1.0, np.nan]))


def test_scale_requires_contiguous_buckets():
    with pytest.raises(VisualizationError):
        DiscreteScale(
            [
                ColorBucket(0, 1, (0, 0, 0), "a"),
                ColorBucket(2, 3, (1, 1, 1), "b"),
            ],
            "broken",
        )


def test_colorize_shape():
    rgb = ABSOLUTE_TIME_SCALE.colorize(np.ones((3, 4)))
    assert rgb.shape == (3, 4, 3)
    assert rgb.dtype == np.uint8


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_every_positive_value_gets_a_color(value):
    color = ABSOLUTE_TIME_SCALE.color_for(value)
    assert len(color) == 3


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def decode_png_size(data: bytes) -> tuple[int, int]:
    """(width, height) from the IHDR chunk."""
    import struct

    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    return struct.unpack(">II", data[16:24])


def test_png_signature_and_size():
    pixels = np.zeros((7, 5, 3), dtype=np.uint8)
    data = encode_png(pixels)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert decode_png_size(data) == (5, 7)


def test_png_idat_decompresses_to_scanlines():
    pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    data = encode_png(pixels)
    idat_start = data.index(b"IDAT") + 4
    import struct

    length = struct.unpack(">I", data[idat_start - 8 : idat_start - 4])[0]
    raw = zlib.decompress(data[idat_start : idat_start + length])
    assert len(raw) == 2 * (1 + 3 * 3)  # filter byte + RGB per row
    assert raw[0] == 0  # filter type 0


def test_png_rejects_bad_input():
    with pytest.raises(VisualizationError):
        encode_png(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(VisualizationError):
        encode_png(np.zeros((2, 2, 3), dtype=np.float64))
    with pytest.raises(VisualizationError):
        encode_png(np.zeros((0, 2, 3), dtype=np.uint8))


def test_save_png(tmp_path):
    from repro.viz import save_png

    path = tmp_path / "x.png"
    save_png(path, np.zeros((2, 2, 3), dtype=np.uint8))
    assert decode_png_size(path.read_bytes()) == (2, 2)


def test_rasterize_grid_scales():
    cells = np.zeros((2, 3, 3), dtype=np.uint8)
    pixels = rasterize_grid(cells, cell_px=4)
    assert pixels.shape == (8, 12, 3)
    with pytest.raises(VisualizationError):
        rasterize_grid(cells, cell_px=0)


def test_heatmap_png_pixels_orientation():
    # grid[x, y]: y=1 (top row of image) red, y=0 green
    grid = np.array([[0.005, 500.0]])  # green bottom, black top
    pixels = heatmap_png_pixels(grid, ABSOLUTE_TIME_SCALE)
    assert pixels.shape == (32, 16, 3)  # 16-pixel cells
    assert tuple(pixels[0, 0]) == ABSOLUTE_TIME_SCALE.buckets[-1].rgb  # top = y=1
    assert tuple(pixels[-1, 0]) == ABSOLUTE_TIME_SCALE.buckets[0].rgb


def test_heatmap_png_censored_white():
    grid = np.array([[np.nan]])
    pixels = heatmap_png_pixels(grid, ABSOLUTE_TIME_SCALE)
    assert tuple(pixels[0, 0]) == (255, 255, 255)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_curves_svg_valid_xml():
    xs = np.array([0.001, 0.01, 0.1, 1.0])
    series = {"scan": np.array([1.0, 1.0, 1.1, 1.2]), "idx": np.array([0.01, 0.1, 1.0, 10.0])}
    svg = curves_svg(xs, series, title="test & chart")
    root = _parse(svg)
    assert root.tag.endswith("svg")
    assert "test &amp; chart" in svg
    assert svg.count("polyline") >= 2


def test_curves_svg_breaks_on_nan():
    xs = np.array([0.01, 0.1, 1.0])
    svg = curves_svg(xs, {"p": np.array([1.0, np.nan, 2.0])}, title="t")
    _parse(svg)
    # Two single points -> no polyline with 2+ points for the gap segment
    assert svg.count("<circle") == 2


def test_curves_svg_gives_a_flat_series_room():
    """One value has no log range of its own: the plot spans a factor of
    two either way, and the line sits in the middle of it."""
    svg = curves_svg(np.array([0.1, 1.0]), {"p": np.array([3.0, 3.0])}, title="t")
    _parse(svg)
    assert svg.count("polyline") >= 1


def test_curves_svg_requires_series():
    with pytest.raises(VisualizationError):
        curves_svg(np.array([1.0]), {}, title="x")


def test_heatmap_svg_valid_and_has_cells():
    grid = np.array([[0.01, 1.0], [10.0, np.nan]])
    svg = heatmap_svg(
        grid,
        ABSOLUTE_TIME_SCALE,
        "map",
        ["2^-2", "2^-1"],
        ["2^-2", "2^-1"],
    )
    _parse(svg)
    # 4 cells + legend swatches + background
    assert svg.count("<rect") >= 4 + ABSOLUTE_TIME_SCALE.n_buckets


def test_legend_svg_lists_all_buckets():
    svg = legend_svg(RELATIVE_FACTOR_SCALE)
    _parse(svg)
    for bucket in RELATIVE_FACTOR_SCALE.buckets:
        assert bucket.label.split()[0] in svg


# ---------------------------------------------------------------------------
# ASCII
# ---------------------------------------------------------------------------


def test_curve_ascii_contains_markers_and_legend():
    xs = np.array([0.01, 0.1, 1.0])
    text = curve_ascii(xs, {"scan": np.array([1.0, 2.0, 3.0])})
    assert "a = scan" in text
    plot_body = "".join(text.splitlines()[1:-1])
    assert plot_body.count("a") == 3  # one marker per data point


def test_curve_ascii_validates():
    with pytest.raises(VisualizationError):
        curve_ascii(np.array([1.0]), {})


def test_heatmap_ascii_shape():
    grid = np.full((4, 3), 0.005)
    text = heatmap_ascii(grid, ABSOLUTE_TIME_SCALE)
    lines = text.splitlines()
    assert len(lines) == 3
    assert all(len(line) == 4 for line in lines)
    assert set("".join(lines)) == {"."}


def test_heatmap_ascii_censored_marker():
    grid = np.array([[np.nan]])
    assert heatmap_ascii(grid, ABSOLUTE_TIME_SCALE) == "!"


def test_legend_ascii_mentions_buckets():
    text = legend_ascii(ABSOLUTE_TIME_SCALE)
    assert "0.001-0.01 seconds" in text
    assert "censored" in text


# ---------------------------------------------------------------------------
# categorical scale and choice/regret rendering
# ---------------------------------------------------------------------------


def test_categorical_scale_stable_assignment():
    from repro.viz import CategoricalScale

    scale = CategoricalScale(["A.scan", "A.index", "A.hash"], "Chosen plan")
    assert scale.n_categories == 3
    assert scale.color_for("A.scan") == scale.color_for_index(0)
    assert scale.index_of("A.hash") == 2
    # Stable: the same inventory yields the same colors in every panel.
    again = CategoricalScale(["A.scan", "A.index", "A.hash"], "other panel")
    assert [again.color_for(c) for c in again.categories] == [
        scale.color_for(c) for c in scale.categories
    ]


def test_categorical_scale_rejects_bad_input():
    from repro.viz import CategoricalScale

    with pytest.raises(VisualizationError):
        CategoricalScale([], "empty")
    with pytest.raises(VisualizationError):
        CategoricalScale(["a", "a"], "dup")
    scale = CategoricalScale(["a", "b"], "t")
    with pytest.raises(VisualizationError):
        scale.color_for("missing")
    with pytest.raises(VisualizationError):
        scale.color_for_index(2)
    with pytest.raises(VisualizationError):
        scale.colorize_indices(np.asarray([0, 2]))


def test_categorical_colorize_indices():
    from repro.viz import CategoricalScale

    scale = CategoricalScale(["a", "b"], "t")
    rgb = scale.colorize_indices(np.asarray([[0, 1], [1, 0]]))
    assert rgb.shape == (2, 2, 3)
    assert tuple(rgb[0, 0]) == scale.color_for("a")
    assert tuple(rgb[0, 1]) == scale.color_for("b")


def test_legend_svg_renders_categorical_scale():
    from repro.viz import CategoricalScale

    scale = CategoricalScale(["A.table_scan", "A.idx_improved"], "Chosen plan")
    svg = legend_svg(scale)
    _parse(svg)
    assert "A.table_scan" in svg and "A.idx_improved" in svg


def test_categorical_heatmap_svg():
    from repro.viz import CategoricalScale, categorical_heatmap_svg

    scale = CategoricalScale(["a", "b"], "Chosen plan")
    indices = np.asarray([[0, 1], [1, -1]])  # -1: no choice (white)
    svg = categorical_heatmap_svg(
        indices, scale, "choices", ["x0", "x1"], ["y0", "y1"]
    )
    _parse(svg)
    assert "rgb(255,255,255)" in svg  # the -1 cell
    with pytest.raises(VisualizationError):
        categorical_heatmap_svg(indices, scale, "t", ["x0"], ["y0", "y1"])


def test_choice_and_regret_heatmaps_from_choice_map():
    from repro.core.choice import ChoiceMap
    from repro.core.mapdata import MapAxis
    from repro.viz.figures import (
        choice_heatmap,
        plan_choice_scale,
        regret_heatmap,
    )

    choice = ChoiceMap(
        policy="classic",
        plan_ids=["A.scan", "A.index"],
        choices=np.asarray([[0, 1], [1, 1]]),
        regret=np.asarray([[1.0, 2.0], [np.inf, np.nan]]),
        axes=[
            MapAxis("selectivity", [0.25, 0.5]),
            MapAxis("error_magnitude", [0.0, 1.0]),
        ],
    )
    scale = plan_choice_scale(choice.plan_ids)
    svg = choice_heatmap(choice, "choices", scale=scale)
    _parse(svg)
    assert "2^-2" in svg  # selectivity ticks render as powers of two
    assert "error_magnitude" in svg
    regret_svg = regret_heatmap(choice, "regret")
    _parse(regret_svg)
    assert "rgb(255,255,255)" in regret_svg  # the NaN cell renders white
    # The scale must cover the full inventory, shared across panels.
    with pytest.raises(VisualizationError):
        choice_heatmap(choice, "t", scale=plan_choice_scale(["A.scan"]))


def test_heatmap_svg_custom_tick_labels():
    grid = np.full((2, 2), 0.005)
    svg = heatmap_svg(
        grid,
        ABSOLUTE_TIME_SCALE,
        "t",
        ["lo", "hi"],
        ["0", "3"],
    )
    _parse(svg)
    assert ">lo<" in svg and ">hi<" in svg
    with pytest.raises(VisualizationError):
        heatmap_svg(
            grid,
            ABSOLUTE_TIME_SCALE,
            "t",
            ["only-one"],
            ["0", "3"],
        )


def test_categorical_scale_stays_injective_past_the_palette():
    from repro.viz import CATEGORICAL_PALETTE, CategoricalScale

    categories = [f"plan{i}" for i in range(3 * len(CATEGORICAL_PALETTE))]
    scale = CategoricalScale(categories, "big inventory")
    colors = [scale.color_for(category) for category in categories]
    assert len(set(colors)) == len(categories)


# ---------------------------------------------------------------------------
# the one colour pass, and the bytes it renders to
# ---------------------------------------------------------------------------


def _edge_values(scale):
    """Every bucket edge with its two float neighbours, plus the specials."""
    edges = [bucket.lo for bucket in scale.buckets] + [scale.buckets[-1].hi]
    around = [
        float(np.nextafter(edge, toward))
        for edge in edges
        for toward in (-np.inf, edge, np.inf)
    ]
    return around + [np.nan, np.inf, 0.0, -1.0, -np.inf]


@pytest.mark.parametrize(
    "scale", [ABSOLUTE_TIME_SCALE, RELATIVE_FACTOR_SCALE], ids=["absolute", "relative"]
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_colour_pass_equals_per_cell_color_for(scale, data):
    from repro.viz.colormap import CENSORED_RGB, _cell_colors

    value = st.one_of(
        st.sampled_from(_edge_values(scale)),
        st.floats(min_value=-10.0, max_value=1e7, allow_nan=False),
    )
    nx = data.draw(st.integers(1, 5))
    ny = data.draw(st.integers(1, 5))
    grid = np.asarray(
        data.draw(st.lists(value, min_size=nx * ny, max_size=nx * ny))
    ).reshape(nx, ny)
    cells = _cell_colors(grid, scale)
    assert cells.shape == (ny, nx, 3) and cells.dtype == np.uint8
    for ix in range(nx):
        for iy in range(ny):
            v = float(grid[ix, iy])
            expected = CENSORED_RGB if np.isnan(v) else scale.color_for(v)
            assert tuple(cells[ny - 1 - iy, ix]) == expected


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_colour_pass_equals_per_cell_color_for_index(data):
    """A categorical scale past the palette's length; negatives are white."""
    from repro.viz import CATEGORICAL_PALETTE, CategoricalScale
    from repro.viz.colormap import CENSORED_RGB, _cell_colors

    n = len(CATEGORICAL_PALETTE) + 3
    scale = CategoricalScale([f"p{i}" for i in range(n)], "Chosen plan")
    nx = data.draw(st.integers(1, 5))
    ny = data.draw(st.integers(1, 5))
    indices = np.asarray(
        data.draw(
            st.lists(st.integers(-2, n - 1), min_size=nx * ny, max_size=nx * ny)
        )
    ).reshape(nx, ny)
    cells = _cell_colors(indices, scale)
    for ix in range(nx):
        for iy in range(ny):
            i = int(indices[ix, iy])
            expected = CENSORED_RGB if i < 0 else scale.color_for_index(i)
            assert tuple(cells[ny - 1 - iy, ix]) == expected


def test_rendered_bytes_of_the_golden_map_are_pinned():
    """sha256 of every plan's ``/render`` SVG and PNG, and of one ASCII map,
    as the parent of the one-colour-pass change rendered them: tier-1, not
    only the benchmark's artifact digest, fails when a rendered byte moves."""
    import hashlib
    import json
    from pathlib import Path

    from repro.core.mapdata import MapData
    from repro.viz import render_map

    data_dir = Path(__file__).parent / "data"
    pins = json.loads((data_dir / "golden_render_sha256.json").read_text())
    golden = MapData.load(data_dir / "golden_two_predicate.json")
    rendered = {
        f"{plan_id}.{fmt}": render_map(golden, plan_id, fmt)[1]
        for plan_id in golden.plan_ids
        for fmt in ("svg", "png")
    }
    rendered["A.idx_a_fetch.txt"] = heatmap_ascii(
        golden.times_for("A.idx_a_fetch"), ABSOLUTE_TIME_SCALE
    ).encode()
    assert {
        name: hashlib.sha256(payload).hexdigest()
        for name, payload in rendered.items()
    } == pins
