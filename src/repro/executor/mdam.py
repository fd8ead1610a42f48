"""Multi-dimensional B-tree access (MDAM, Leslie et al. VLDB 1995).

System C's signature capability (Fig 9).  Given a composite index on
``(leading, trailing)`` and range predicates on both columns, MDAM
enumerates the *present* distinct values of the leading column and, for
each, probes the sub-range of trailing values — skipping every leaf that
contains no qualifying entry.  Its cost is therefore bounded above by a
full index-range scan and below by a handful of probes, which is exactly
why its robustness map is "reasonable across the entire parameter space".

The implementation is vectorized: probe positions are computed with
searchsorted over the tree's flat view, while I/O is charged for precisely
the leaf pages a walking implementation would touch and CPU for precisely
the probes it would issue (one descent per leading-value group that starts
on a new leaf; in-leaf continuation otherwise).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PlanError
from repro.executor.context import ExecContext
from repro.executor.results import Result
from repro.obs.tracer import trace_op
from repro.storage.bitmap import dedupe_sorted
from repro.storage.table import SecondaryIndex


def _positions_from_spans(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) integer ranges, vectorized."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


def mdam_scan(
    ctx: ExecContext,
    index: SecondaryIndex,
    leading_range: tuple[int, int],
    trailing_range: tuple[int, int],
) -> Result:
    """Execute an MDAM scan over a two-column composite index."""
    with trace_op(ctx, "mdam-scan", "index"):
        return _mdam_scan(ctx, index, leading_range, trailing_range)


def _mdam_scan(
    ctx: ExecContext,
    index: SecondaryIndex,
    leading_range: tuple[int, int],
    trailing_range: tuple[int, int],
) -> Result:
    codec = index.codec
    if codec.n_columns != 2:
        raise PlanError("MDAM requires a two-column composite index")
    tree = index.tree
    flat = tree.flat
    profile = ctx.profile

    # Clamp both ranges to the codec's domain; empty after clamping means
    # an empty result, not an error.
    lead_max, trail_max = ((1 << b) - 1 for b in codec.bits)
    leading_range = (max(0, leading_range[0]), min(leading_range[1], lead_max))
    trailing_range = (max(0, trailing_range[0]), min(trailing_range[1], trail_max))
    if leading_range[0] > leading_range[1] or trailing_range[0] > trailing_range[1]:
        return Result.empty()

    # Bounding span of the leading range (trailing unconstrained): the
    # region within which leading values are discovered.
    lead_lo, lead_hi = leading_range
    span_lo, span_hi = codec.prefix_bounds(np.asarray([lead_lo, lead_hi]))
    span_start, span_end = tree.span_for_range(int(span_lo[0]), int(span_hi[1]))
    if span_end <= span_start:
        return Result.empty()

    leading_values = codec.decode(flat.keys[span_start:span_end])[0]
    unique_leading = dedupe_sorted(leading_values)  # index order = sorted

    # One probe per present leading value: [encode(a, b_lo), encode(a, b_hi)].
    trail_lo, trail_hi = trailing_range
    probe_lo, probe_hi = codec.with_trailing_range(unique_leading, trail_lo, trail_hi)
    starts = np.searchsorted(flat.keys, probe_lo, side="left")
    ends = np.searchsorted(flat.keys, probe_hi, side="right")

    # --- I/O: leaf pages a walking MDAM would read ------------------------
    # Every probe lands on the leaf of its start position (even when the
    # probe finds nothing); non-empty probes additionally cover the leaves
    # up to their last qualifying entry.
    n_entries = flat.n_entries
    start_clamped = np.minimum(starts, n_entries - 1)
    first_leaf = flat.leaf_index_of(start_clamped)
    last_pos = np.maximum(ends - 1, start_clamped)
    last_leaf = flat.leaf_index_of(np.minimum(last_pos, n_entries - 1))
    # Probes ascend, so each span starts at or after the previous one's
    # last leaf: the concatenated leaf indices are non-decreasing.
    leaf_spans = _positions_from_spans(first_leaf, last_leaf + 1)
    pages = flat.pages_of_leaves(leaf_spans)
    if pages.size:
        ctx.disk.read_scattered(tree.handle, pages)

    # --- CPU: descents for leaf jumps, binary search for in-leaf steps ----
    jumps = int(np.count_nonzero(first_leaf[1:] > last_leaf[:-1])) + 1
    in_leaf_probes = unique_leading.size - jumps
    ctx.charge(jumps, profile.btree_probe_cpu)
    if in_leaf_probes > 0 and tree.leaf_capacity > 1:
        per_search = math.log2(tree.leaf_capacity) * profile.cpu_compare
        ctx.charge(in_leaf_probes, per_search)

    # --- qualifying entries ------------------------------------------------
    positions = _positions_from_spans(starts, ends)
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
