"""Multi-dimensional B-tree access (MDAM, Leslie et al. VLDB 1995).

System C's signature capability (Fig 9).  Given a composite index on
``(leading, trailing)`` and range predicates on both columns, MDAM
enumerates the *present* distinct values of the leading column and, for
each, probes the sub-range of trailing values — skipping every leaf that
contains no qualifying entry.  Its cost is therefore bounded above by a
full index-range scan and below by a handful of probes, which is exactly
why its robustness map is "reasonable across the entire parameter space".

The implementation counts where a walking MDAM would search.  Every
probe lies inside the bounding span of the leading range, which MDAM
decodes anyway to discover the leading values.  There each leading
value's entries form one contiguous group, sorted by trailing value, so
a probe's bounds are its group's start plus two counts: the group's
entries below the trailing range, and those inside it.  The qualifying
entries are the span's entries whose trailing value is in range.  No
key is searched for.  I/O is charged for precisely the leaf pages a
walking implementation would touch — the leaves from each probe's
first entry to its last, counted along the leaf chain as the run from
the first probe's leaf to the last probe's, less the gaps that probes
jump over — and CPU for precisely the probes it would issue (one
descent per leading-value group that starts on a new leaf; in-leaf
continuation otherwise).

The decoded span and its trailing filter are host payload, memoized in
the runner's :class:`~repro.executor.context.PayloadMemo`
(:func:`decoded_span`, :func:`trailing_filter`): the plain composite
range scan of the same index and leading range
(:class:`~repro.executor.plans.CompositeRangeRidsNode`) reads the same
span and keeps the same entries, so one runner decodes and filters it
once for both plans.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PlanError
from repro.executor.context import ExecContext
from repro.executor.results import Result
from repro.obs.tracer import trace_op
from repro.storage.table import SecondaryIndex


class DecodedSpan:
    """One composite-index key range's entries: flat position of the
    first, and the decoded leading values, trailing values and rids."""

    __slots__ = ("start", "leading", "trailing", "rids")

    def __init__(
        self,
        start: int,
        leading: np.ndarray,
        trailing: np.ndarray,
        rids: np.ndarray,
    ) -> None:
        self.start = start
        self.leading = leading
        self.trailing = trailing
        self.rids = rids


def decoded_span(
    ctx: ExecContext, index: SecondaryIndex, key_range: tuple[int, int]
) -> DecodedSpan:
    """The entries with encoded key in the inclusive ``key_range``,
    decoded once per runner.  Charges nothing."""

    def decode() -> DecodedSpan:
        tree = index.tree
        start, end = tree.span_for_range(*key_range)
        flat = tree.flat
        leading, trailing = index.codec.decode(flat.keys[start:end])
        return DecodedSpan(start, leading, trailing, flat.payload["rid"][start:end])

    return ctx.memo.get(("span", index, key_range), decode)


def trailing_filter(
    ctx: ExecContext,
    index: SecondaryIndex,
    key_range: tuple[int, int],
    trailing_range: tuple[int, int],
) -> tuple[np.ndarray, Result]:
    """The entries of :func:`decoded_span` whose trailing value lies in
    ``trailing_range``: their mask over the span, and the result both
    composite scans return (rids and both key columns, in index order).
    Once per runner; charges nothing."""
    trail_max = (1 << index.codec.bits[1]) - 1
    # Decoded values lie in [0, trail_max], so the clamped range keeps
    # the same entries; it is the memo key both scans agree on.
    lo = max(0, trailing_range[0])
    hi = min(trailing_range[1], trail_max)

    def keep() -> tuple[np.ndarray, Result]:
        span = decoded_span(ctx, index, key_range)
        inside = (span.trailing >= lo) & (span.trailing <= hi)
        lead_col, trail_col = index.key_columns
        return inside, Result(
            span.rids[inside],
            {lead_col: span.leading[inside], trail_col: span.trailing[inside]},
        )

    return ctx.memo.get(("trailing-filter", index, key_range, lo, hi), keep)


def _group_counts(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many ``flags`` are set in each ``[bounds[g], bounds[g + 1])``:
    differences of one cumulative count."""
    running = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=running[1:])
    return np.diff(running[bounds])


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
    span_lo, span_hi = codec.prefix_bounds(np.asarray(leading_range))
    key_range = (int(span_lo[0]), int(span_hi[1]))
    span = decoded_span(ctx, index, key_range)
    n_span = int(span.rids.size)
    if n_span == 0:
        return Result.empty()
    inside, result = trailing_filter(ctx, index, key_range, trailing_range)

    # One probe per present leading value, for [encode(a, b_lo),
    # encode(a, b_hi)].  Groups are bounded where the leading value
    # changes; a probe starts past its group's entries below b_lo and
    # ends past those inside the range.
    leading = span.leading
    at_bound = np.empty(n_span + 1, dtype=bool)
    at_bound[0] = at_bound[-1] = True
    np.not_equal(leading[1:], leading[:-1], out=at_bound[1:-1])
    bounds = np.flatnonzero(at_bound)
    n_probes = int(bounds.size) - 1
    below = span.trailing < trailing_range[0]
    starts = span.start + bounds[:-1] + _group_counts(below, bounds)
    ends = starts + _group_counts(inside, bounds)

    # --- I/O: leaf pages a walking MDAM would read ------------------------
    # Every probe lands on the leaf of its start position (even when the
    # probe finds nothing); non-empty probes additionally cover the leaves
    # up to their last qualifying entry.
    n_entries = flat.n_entries
    start_clamped = np.minimum(starts, n_entries - 1)
    first_leaf = flat.leaf_index_of(start_clamped)
    last_pos = np.maximum(ends - 1, start_clamped)
    last_leaf = flat.leaf_index_of(np.minimum(last_pos, n_entries - 1))
    # Probes ascend, so each probe's leaves start at or after the previous
    # one's last leaf: the leaves read run from the first probe's first
    # leaf to the last probe's last, less the gaps that probes jump over.
    # A gap opens past one probe's last leaf and closes at the next
    # probe's first; a leaf is read where the count of open gaps is 0.
    gaps = np.flatnonzero(first_leaf[1:] > last_leaf[:-1] + 1)
    base = int(first_leaf[0])
    open_gaps = np.zeros(int(last_leaf[-1]) - base + 1, dtype=np.int64)
    open_gaps[last_leaf[gaps] + 1 - base] = 1
    open_gaps[first_leaf[gaps + 1] - base] = -1
    read = np.flatnonzero(np.cumsum(open_gaps) == 0)
    ctx.disk.read_scattered(tree.handle, flat.leaf_pages[base + read])

    # --- CPU: descents for leaf jumps, binary search for in-leaf steps ----
    jumps = int(np.count_nonzero(first_leaf[1:] > last_leaf[:-1])) + 1
    in_leaf_probes = n_probes - jumps
    ctx.charge(jumps, profile.btree_probe_cpu)
    if in_leaf_probes > 0 and tree.leaf_capacity > 1:
        per_search = math.log2(tree.leaf_capacity) * profile.cpu_compare
        ctx.charge(in_leaf_probes, per_search)

    # --- qualifying entries ------------------------------------------------
    ctx.charge(result.n_rows, profile.cpu_row)
    ctx.check_budget()
    return result
