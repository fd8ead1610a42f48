"""Minimal PNG encoder (stdlib only).

matplotlib is unavailable in this environment, so robustness maps are
rasterized with a small, standards-compliant PNG writer: 8-bit RGB,
filter type 0, one zlib-compressed IDAT chunk.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import VisualizationError

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(chunk_type: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(chunk_type + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + chunk_type + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as PNG bytes."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise VisualizationError(f"expected (H, W, 3) pixels, got {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise VisualizationError(f"expected uint8 pixels, got {pixels.dtype}")
    height, width, _ = pixels.shape
    if height == 0 or width == 0:
        raise VisualizationError("cannot encode an empty image")
    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    # Prepend filter byte 0 to every scanline.
    raw = np.concatenate(
        [np.zeros((height, 1), dtype=np.uint8), pixels.reshape(height, -1)], axis=1
    ).tobytes()
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", header)
        + _chunk(b"IDAT", zlib.compress(raw, level=6))
        + _chunk(b"IEND", b"")
    )


def save_png(path: str | Path, pixels: np.ndarray) -> None:
    """Encode and write an (H, W, 3) uint8 array to ``path``."""
    Path(path).write_bytes(encode_png(pixels))


def rasterize_grid(rgb_cells: np.ndarray, cell_px: int = 16) -> np.ndarray:
    """Expand an (H, W, 3) cell-color array into pixels (H*c, W*c, 3)."""
    rgb_cells = np.asarray(rgb_cells, dtype=np.uint8)
    if rgb_cells.ndim != 3 or rgb_cells.shape[2] != 3:
        raise VisualizationError(f"expected (H, W, 3) cells, got {rgb_cells.shape}")
    if cell_px <= 0:
        raise VisualizationError(f"cell_px must be positive, got {cell_px}")
    return np.repeat(np.repeat(rgb_cells, cell_px, axis=0), cell_px, axis=1)
