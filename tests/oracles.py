"""Reference implementations that fast paths in ``src`` are checked against.

Each oracle is a plain model of what a kernel charges and returns,
kept here rather than in ``src`` because no front door runs it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.executor.context import ExecContext
from repro.executor.results import Result
from repro.storage.bitmap import dedupe_sorted
from repro.storage.table import SecondaryIndex


def _concatenated_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``[starts[i], ends[i])`` for every i, concatenated in order."""
    pieces = [np.arange(s, e, dtype=np.int64) for s, e in zip(starts, ends)]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def searchsorted_mdam_scan(
    ctx: ExecContext,
    index: SecondaryIndex,
    leading_range: tuple[int, int],
    trailing_range: tuple[int, int],
) -> Result:
    """MDAM as it searched for its probe bounds, one probe per present
    leading value, over the whole leaf level.

    The charges — leaf pages read, descents, in-leaf searches, qualifying
    rows, one budget check — and the result are what
    :func:`repro.executor.mdam.mdam_scan` must reproduce exactly.
    """
    codec = index.codec
    tree = index.tree
    flat = tree.flat
    profile = ctx.profile
    lead_max, trail_max = ((1 << b) - 1 for b in codec.bits)
    leading_range = (max(0, leading_range[0]), min(leading_range[1], lead_max))
    trailing_range = (max(0, trailing_range[0]), min(trailing_range[1], trail_max))
    if leading_range[0] > leading_range[1] or trailing_range[0] > trailing_range[1]:
        return Result.empty()

    lead_lo, lead_hi = leading_range
    span_lo, span_hi = codec.prefix_bounds(np.asarray([lead_lo, lead_hi]))
    span_start, span_end = tree.span_for_range(int(span_lo[0]), int(span_hi[1]))
    if span_end <= span_start:
        return Result.empty()

    leading_values = codec.decode(flat.keys[span_start:span_end])[0]
    unique_leading = dedupe_sorted(leading_values)
    trail_lo, trail_hi = trailing_range
    probe_lo, probe_hi = (
        codec.encode([unique_leading, np.full(unique_leading.size, trailing)])
        for trailing in (trail_lo, trail_hi)
    )
    starts = np.searchsorted(flat.keys, probe_lo, side="left")
    ends = np.searchsorted(flat.keys, probe_hi, side="right")

    n_entries = flat.n_entries
    start_clamped = np.minimum(starts, n_entries - 1)
    first_leaf = flat.leaf_index_of(start_clamped)
    last_pos = np.maximum(ends - 1, start_clamped)
    last_leaf = flat.leaf_index_of(np.minimum(last_pos, n_entries - 1))
    leaf_spans = _concatenated_ranges(first_leaf, last_leaf + 1)
    pages = flat.leaf_pages[dedupe_sorted(leaf_spans)]
    if pages.size:
        ctx.disk.read_scattered(tree.handle, pages)

    jumps = int(np.count_nonzero(first_leaf[1:] > last_leaf[:-1])) + 1
    in_leaf_probes = unique_leading.size - jumps
    ctx.charge(jumps, profile.btree_probe_cpu)
    if in_leaf_probes > 0 and tree.leaf_capacity > 1:
        per_search = math.log2(tree.leaf_capacity) * profile.cpu_compare
        ctx.charge(in_leaf_probes, per_search)

    positions = _concatenated_ranges(starts, ends)
    ctx.charge(positions.size, profile.cpu_row)
    keys = flat.keys[positions]
    rids = flat.payload["rid"][positions]
    lead_vals, trail_vals = codec.decode(keys)
    ctx.check_budget()
    lead_col, trail_col = index.key_columns
    return Result(
        np.asarray(rids, dtype=np.int64),
        {lead_col: lead_vals, trail_col: trail_vals},
    )
