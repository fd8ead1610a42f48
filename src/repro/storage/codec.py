"""Order-preserving key codecs for B-tree indexes.

Composite (two-column) indexes — the backbone of System B's covering
plans and System C's MDAM scans — pack their columns into one int64 such
that lexicographic order of the tuple equals numeric order of the
encoding; a single-column index is the one-column case, its key stored
as it is (shift 0).
Packing requires fixed bit budgets per column; the codec validates that
values fit and exposes the prefix arithmetic MDAM needs (smallest/largest
key sharing a leading-column value).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import KeyCodecError


class CompositeKeyCodec:
    """Packs N non-negative integer columns into one order-preserving int64.

    Columns are packed most-significant-first, so the first column is the
    B-tree's leading column.  The sum of bit widths must stay below 64 to
    keep encodings non-negative in int64.
    """

    def __init__(self, bits: Sequence[int]) -> None:
        bits = tuple(int(b) for b in bits)
        if not bits:
            raise KeyCodecError("composite codec needs at least one column")
        if any(b < 1 for b in bits):
            raise KeyCodecError(f"every bit width must be >= 1, got {bits}")
        if sum(bits) > 63:
            raise KeyCodecError(f"total bit width {sum(bits)} exceeds 63")
        self.bits = bits
        self.n_columns = len(bits)
        self._maxima = tuple((1 << b) - 1 for b in bits)
        shifts = []
        acc = 0
        for width in reversed(bits):
            shifts.append(acc)
            acc += width
        self._shifts = tuple(reversed(shifts))

    def encode(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Encode aligned column arrays into one int64 key array."""
        if len(columns) != self.n_columns:
            raise KeyCodecError(
                f"expected {self.n_columns} columns, got {len(columns)}"
            )
        encoded = None
        for values, maximum, shift in zip(columns, self._maxima, self._shifts):
            values = np.asarray(values, dtype=np.int64)
            if values.size and (values.min() < 0 or values.max() > maximum):
                raise KeyCodecError(f"column values outside [0, {maximum}]")
            part = values << shift
            encoded = part if encoded is None else encoded | part
        return encoded

    def decode(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        """Unpack an int64 key array back into per-column arrays."""
        keys = np.asarray(keys, dtype=np.int64)
        return tuple(
            (keys >> shift) & maximum
            for maximum, shift in zip(self._maxima, self._shifts)
        )

    def encode_scalar(self, values: Sequence[int]) -> int:
        if len(values) != self.n_columns:
            raise KeyCodecError(
                f"expected {self.n_columns} values, got {len(values)}"
            )
        encoded = 0
        for value, maximum, shift in zip(values, self._maxima, self._shifts):
            if not 0 <= value <= maximum:
                raise KeyCodecError(f"value {value} outside [0, {maximum}]")
            encoded |= value << shift
        return encoded

    def range_for(self, ranges: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """Encoded [lo, hi] covering all tuples in the per-column boxes.

        Note this is the *bounding* key range: keys inside it may still
        violate trailing-column ranges (that is exactly the gap MDAM
        exploits versus a plain range scan).
        """
        if len(ranges) != self.n_columns:
            raise KeyCodecError(f"expected {self.n_columns} ranges, got {len(ranges)}")
        lo = self.encode_scalar([r[0] for r in ranges])
        hi = self.encode_scalar([r[1] for r in ranges])
        if lo > hi:
            raise KeyCodecError("range lower bound encodes above upper bound")
        return lo, hi

    def prefix_bounds(self, leading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest encoded keys sharing each leading value."""
        leading = np.asarray(leading, dtype=np.int64)
        shift = self._shifts[0]
        lo = leading << shift
        hi = lo | ((1 << shift) - 1)
        return lo, hi
