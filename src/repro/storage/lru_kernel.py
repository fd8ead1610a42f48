"""Vectorized miss-path kernel: batched LRU simulation over a page trace.

:class:`~repro.storage.buffer_pool.BufferPool` semantics are inherently
sequential — whether access ``i`` hits depends on every eviction decision
before it.  This module resolves an *entire* access trace at once anyway,
using the classic Mattson stack-distance argument: exact LRU has the
**inclusion property** (a pool of ``C`` frames holds precisely the ``C``
most recently used distinct keys), so access ``i`` hits iff its key was
accessed before (at position ``j``) **and** fewer than ``C`` distinct
keys were touched since, i.e. its *reuse distance*

.. math::  d(i) = 1 + \\#\\{\\text{distinct keys last accessed in } (j, i)\\}

satisfies ``d(i) <= C``.  Reuse distances for the whole trace are computed
from previous/next-occurrence arrays (one stable argsort over the trace);
cheap window bounds classify almost every access outright, and the few
ambiguous ones resolve through one offline 2-D dominance count
(:func:`_dominance_counts`, sqrt-decomposed) — entirely in NumPy, no
per-page dict operations.  The pool's *current* residents are absorbed as
a synthetic trace prefix (one access per resident key, LRU-oldest first),
which makes warm-pool traces a special case of cold traces.

The kernel is only this stack-distance simulation.  The buffer pool
owns the rule that a batch cannot evict
(:meth:`~repro.storage.buffer_pool.BufferPool.fits`) and charges such a
batch from its pages' first and last touches, so the traces that come
here are those that may evict (a window of one may still fit the pool;
the simulation is exact for it all the same).

Downstream effects are closed-form once hits are known:

* ``misses``  — trace length minus hits;
* ``evictions = max(0, P + misses - C)`` — residency grows by one per
  miss and shrinks only by evicting when full, starting from ``P``
  residents (``P <= C`` always);
* final LRU order — the ``min(C, P + misses)`` most recently used keys,
  ascending by last-occurrence position (inclusion property again).

The kernel is *exact*, not approximate: for every trace it reproduces the
same hit/miss/eviction counts, the same per-access hit classification
(hence the same disk charges in the same order), and the same final
resident order as the sequential ``get()`` loop.  Its one caller is
:meth:`BufferPool.charge_trace`, which simulates a trace window by
window, each against the residents the previous one left.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: Trace positions simulated per segment.  Segmenting bounds the
#: per-segment working set, and the resident state carried between
#: segments makes the split exact (the next segment sees the previous
#: segment's final residents as its warm-pool prefix).  It also prunes
#: ambiguity: a key whose previous access fell out of the carried state
#: is a certain miss, with no reuse-distance query at all.
_SEGMENT = 1024

#: Memoized :func:`simulate_lru` results, keyed by the exact inputs.
#: The simulation is a pure function of ``(trace, resident, capacity)``,
#: and the naive fetches that reach it repeat: a 2-D map's naive plan
#: fetches the same rids, against the same cold pool, at every cell of a
#: grid row that only its residual predicate varies, and 1-D maps that
#: share a cell re-measure its traditional index scan.  A tiny LRU of
#: recent results turns those replays into one hash of the input bytes.  Entries are shared:
#: callers must treat the returned simulation's arrays as read-only.
#: Every read and write of the memo holds :data:`_memo_lock` — the
#: service sweeps on several threads, and a lookup's ``get`` and
#: ``move_to_end`` must not have another thread's eviction between them.
_MEMO_CAPACITY = 8
_memo: OrderedDict[tuple[int, bytes, bytes], LruSimulation] = OrderedDict()
_memo_lock = threading.Lock()


@dataclass
class LruSimulation:
    """Outcome of simulating a page-access trace against an LRU pool."""

    #: Per-access hit flags, aligned with the input trace.
    hit_mask: np.ndarray
    #: Evictions the trace causes (0 until the pool fills).
    n_evictions: int
    #: Final resident keys, LRU-oldest first (same encoding as the input
    #: ``resident`` argument: callers map keys to int64 codes).
    final_keys: np.ndarray

    @property
    def n_hits(self) -> int:
        return int(np.count_nonzero(self.hit_mask))

    @property
    def n_misses(self) -> int:
        return int(self.hit_mask.size) - self.n_hits


def simulate_lru(
    trace: np.ndarray, resident: np.ndarray, capacity: int
) -> LruSimulation:
    """Simulate ``for key in trace: pool.get(key)`` without running it.

    ``trace`` is the int64 key-access sequence; ``resident`` the current
    pool contents as distinct int64 keys in LRU order (oldest first, at
    most ``capacity`` of them); ``capacity`` the frame count.  Keys are
    opaque codes — the buffer pool encodes ``(file_id, page_no)`` pairs
    into them (trace-file pages as themselves, other files' pages as
    negative codes) so a single int64 comparison is key equality.

    Returns per-access hit flags, the eviction count, and the final
    resident keys in LRU order; the caller charges one disk read per
    ``False`` flag (in trace order) to reproduce the loop's charges.

    Results are memoized (see :data:`_memo`): repeated calls with the
    same inputs return the *same* :class:`LruSimulation` object, so
    callers must not mutate its arrays.
    """
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    state = np.ascontiguousarray(np.asarray(resident, dtype=np.int64))
    if state.size > capacity:
        raise ValueError(
            f"resident set of {state.size} exceeds capacity {capacity}"
        )
    memo_key = (capacity, trace.tobytes(), state.tobytes())
    with _memo_lock:
        cached = _memo.get(memo_key)
        if cached is not None:
            _memo.move_to_end(memo_key)
            return cached
    result = _simulate_segmented(trace, state, capacity)
    with _memo_lock:
        _memo[memo_key] = result
        if len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    return result


def _simulate_segmented(
    trace: np.ndarray, state: np.ndarray, capacity: int
) -> LruSimulation:
    """Stack-distance simulation of any trace, :data:`_SEGMENT` at a time."""
    hit_parts: list[np.ndarray] = []
    deferred: list[tuple[int, int, _DeferredQueries]] = []
    evictions = 0
    base = 0
    for start in range(0, int(trace.size), _SEGMENT):
        segment = trace[start : start + _SEGMENT]
        hits, segment_evictions, state, defer = _simulate_segment(
            segment, state, capacity
        )
        hit_parts.append(hits)
        evictions += segment_evictions
        if defer is not None:
            # Shift this segment's combined sequence to the position
            # range [base, base + m) so every deferred segment's queries
            # can share one dominance structure.  Cross-segment pollution
            # is impossible: a later segment's points sit beyond any
            # earlier query's prefix, and an earlier segment's shifted
            # "no next occurrence" sentinel (base + m, the next
            # segment's first position) stays below any later query
            # position i (every query follows its previous occurrence,
            # so i >= base' + 1).
            deferred.append((start, base, defer))
            base += defer.combined_size
    hit_mask = (
        np.concatenate(hit_parts) if hit_parts else np.zeros(0, dtype=bool)
    )
    if deferred:
        resolved_hits = _resolve_ambiguous(
            np.concatenate([d.query_prev + b for _, b, d in deferred]),
            np.concatenate([d.query_pos + b for _, b, d in deferred]),
            np.concatenate([d.band_pos + b for _, b, d in deferred]),
            np.concatenate([d.band_next + b for _, b, d in deferred]),
            capacity,
        )
        trace_idx = np.concatenate(
            [start + d.trace_idx for start, _, d in deferred]
        )
        hit_mask[trace_idx[resolved_hits]] = True
        # Every deferred segment was saturated (its evictions were
        # counted as if all ambiguous accesses missed), so each resolved
        # hit takes back exactly one eviction.
        evictions -= int(np.count_nonzero(resolved_hits))
    return LruSimulation(hit_mask, evictions, state)


def _resolve_ambiguous(
    query_prev: np.ndarray,
    query_pos: np.ndarray,
    band_pos: np.ndarray,
    band_next: np.ndarray,
    capacity: int,
) -> np.ndarray:
    """Exact hit flags for ambiguous accesses, via window-dead counting.

    The reuse distance satisfies ``d(i) - 1 = #{p in (j, i)} - dead(j,
    i)`` where ``dead(j, i) = #{p in (j, i) : next(p) < i}`` counts the
    window positions whose key is touched *again* inside the window
    (only the last touch is live).  Dead positions necessarily have a
    next occurrence — so only the *band* (positions whose key reappears
    within their own segment, typically a small fraction of a miss-heavy
    trace) can ever be counted, and the dominance structure shrinks to
    band size.  With band positions remapped to their ranks, ``dead(j,
    i) = k(i) - (r(j) + 1) + A(r(j), i)`` where ``k(i)`` counts band
    next-occurrences below ``i``, ``r(j)`` is the rank of the last band
    position at or below ``j``, and ``A`` is the prefix-rank dominance
    count of :func:`_dominance_counts` over the rank permutation.
    """
    window = query_pos - query_prev
    if band_pos.size == 0:
        # No key reappears: every window position is live, so the reuse
        # distance equals the window length — above capacity for every
        # ambiguous access.
        return np.zeros(int(window.size), dtype=bool)
    below_i = np.searchsorted(np.sort(band_next), query_pos)
    rank_prev = np.searchsorted(band_pos, query_prev, side="right") - 1
    eligible = _dominance_counts(rank_prev, query_pos, band_next)
    dead = below_i - (rank_prev + 1) + eligible
    reuse_distance = 1 + (window - 1) - dead
    result = reuse_distance <= capacity
    return result


@dataclass
class _DeferredQueries:
    """Ambiguous accesses of one segment, awaiting the global count.

    A *saturated* segment (one whose certain misses already fill the
    pool) can publish its final state and provisional evictions without
    resolving its ambiguous accesses: the final resident count is pinned
    at capacity either way, so ambiguity only moves the hit/miss split.
    Deferring lets :func:`simulate_lru` resolve every segment's
    ambiguous queries through a single :func:`_dominance_counts` call —
    the per-call fixed cost is paid once instead of per segment.
    """

    #: Segment-local trace indices of the ambiguous accesses.
    trace_idx: np.ndarray
    #: Previous-occurrence / own position of each query, in combined
    #: (prefix + segment) coordinates.
    query_prev: np.ndarray
    query_pos: np.ndarray
    #: Band positions (combined coordinates, ascending) and their next
    #: occurrences — the dominance points (see :func:`_resolve_ambiguous`).
    band_pos: np.ndarray
    band_next: np.ndarray
    #: Positions the segment's combined (prefix + segment) range spans,
    #: i.e. how far to shift the next segment's coordinates.
    combined_size: int


def _simulate_segment(
    segment: np.ndarray, state: np.ndarray, capacity: int
) -> tuple[np.ndarray, int, np.ndarray, _DeferredQueries | None]:
    """One segment of :func:`simulate_lru`.

    Returns ``(hits, evictions, state, deferred)``.  When ``deferred``
    is not ``None`` the segment was saturated and its ambiguous accesses
    are still marked as misses in ``hits`` (and counted as misses in
    ``evictions``); the caller patches both after the global dominance
    count resolves them.
    """
    n = int(segment.size)
    n_resident = int(state.size)
    # Absorb the residents as a synthetic warm-up prefix: replaying one
    # access per resident key (LRU-oldest first) from an empty pool of the
    # same capacity reproduces the current state exactly, so classifying
    # the combined sequence classifies the real trace.
    m = n_resident + n
    sequence = np.concatenate((state, segment)) if n_resident else segment
    order = np.argsort(sequence, kind="stable")
    sorted_keys = sequence[order]
    same_as_previous = sorted_keys[1:] == sorted_keys[:-1]
    previous_occurrence = np.full(m, -1, dtype=np.int64)
    next_occurrence = np.full(m, m, dtype=np.int64)
    previous_occurrence[order[1:][same_as_previous]] = order[:-1][
        same_as_previous
    ]
    next_occurrence[order[:-1][same_as_previous]] = order[1:][same_as_previous]
    first_occurrence = previous_occurrence < 0

    query_prev = previous_occurrence[n_resident:]
    query_pos = np.arange(n_resident, m, dtype=np.int64)
    has_previous = query_prev >= 0

    # Cheap exact bounds classify almost every access without an exact
    # reuse-distance query.  The reuse distance d(i) = 1 + #distinct
    # keys in the window (j, i) is squeezed between
    #
    # * the window length: d(i) <= 1 + (i - j - 1), so any access whose
    #   previous occurrence is at most ``capacity`` back is certainly a
    #   hit (hot keys — the common case in warm traces), and
    # * the first occurrences inside the window: d(i) >= 1 + #{first
    #   occurrences in (j, i)}, so a window with >= capacity brand-new
    #   keys is certainly a miss (cold sweeps — the common case in
    #   miss-bound traces).
    hits = np.zeros(n, dtype=bool)
    window = query_pos - query_prev
    hits[has_previous & (window <= capacity)] = True
    first_count = np.cumsum(first_occurrence)
    new_in_window = np.zeros(n, dtype=np.int64)
    new_in_window[has_previous] = (
        first_count[query_pos[has_previous] - 1]
        - first_count[query_prev[has_previous]]
    )
    ambiguous = np.nonzero(
        has_previous & (window > capacity) & (new_in_window < capacity)
    )[0]
    deferred: _DeferredQueries | None = None
    if ambiguous.size:
        amb_prev = query_prev[ambiguous]
        amb_pos = query_pos[ambiguous]
        band_pos = np.nonzero(next_occurrence < m)[0]
        band_next = next_occurrence[band_pos]
        n_certain_misses = (
            n - int(np.count_nonzero(hits)) - int(ambiguous.size)
        )
        if n_resident + n_certain_misses >= capacity:
            # Saturated: the certain misses alone pin the final resident
            # count at capacity, so the final state and (provisional)
            # evictions don't depend on how the ambiguity resolves —
            # defer it to the caller's single global dominance count.
            deferred = _DeferredQueries(
                ambiguous, amb_prev, amb_pos, band_pos, band_next, m
            )
        else:
            hits[ambiguous] = _resolve_ambiguous(
                amb_prev, amb_pos, band_pos, band_next, capacity
            )

    n_misses = n - int(np.count_nonzero(hits))
    evictions = max(0, n_resident + n_misses - capacity)
    n_final = min(capacity, n_resident + n_misses)
    last_occurrences = np.nonzero(next_occurrence == m)[0]
    keys_by_recency = sequence[last_occurrences]
    final = keys_by_recency[keys_by_recency.size - n_final :]
    return hits, evictions, final, deferred


def _dominance_counts(
    query_prev: np.ndarray,
    query_pos: np.ndarray,
    next_occurrence: np.ndarray,
) -> np.ndarray:
    """Exact ``A(j, i) = #{p <= j : next_occurrence[p] >= i}`` per query.

    An offline 2-D dominance count over the point set ``(p,
    next_occurrence[p])``, vectorized by sqrt decomposition.  Order the
    points by next-occurrence descending: the points with ``next >= i``
    are then exactly a prefix (of length ``k(i)``, found by one
    searchsorted), and the count becomes *rank of j within a prefix* of
    a fixed permutation of positions.  A coarse 2-D cumulative histogram
    over sqrt(m)-sized blocks answers the (complete l-block x complete
    value-block) part in O(1) per query; the two partial-block residues
    are counted by brute force over at most one block each — O(sqrt(m))
    per query instead of O(m).
    """
    m = int(next_occurrence.size)
    n_queries = int(query_prev.size)
    counts = np.zeros(n_queries, dtype=np.int64)
    if n_queries == 0 or m == 0:
        return counts
    # Points sorted by next descending; `order` doubles as the value
    # sequence (the value of a point IS its position p, a permutation).
    order = np.argsort(-next_occurrence, kind="stable")
    inverse = np.empty(m, dtype=np.int64)
    inverse[order] = np.arange(m, dtype=np.int64)
    prefix_len = m - np.searchsorted(np.sort(next_occurrence), query_pos)

    # Block size balances the O((m/B)^2) histogram cumsum against the
    # O(n_q * B) brute-forced residues (minimized near (2m^2/3n_q)^1/3);
    # sqrt(m) is the right order when queries are about as dense as
    # points, and the clamp keeps degenerate shapes sane.
    block = int(
        np.clip((2.0 * m * m / (3.0 * n_queries)) ** (1.0 / 3.0), 1, m)
    )
    n_blocks = -(-m // block)
    histogram = np.bincount(
        (np.arange(m, dtype=np.int64) // block) * n_blocks + order // block,
        minlength=n_blocks * n_blocks,
    ).reshape(n_blocks, n_blocks)
    cumulative = histogram.cumsum(axis=0).cumsum(axis=1)
    k_blocks = prefix_len // block
    j_blocks = (query_prev + 1) // block
    complete = np.where(
        (k_blocks > 0) & (j_blocks > 0),
        cumulative[
            np.maximum(k_blocks, 1) - 1, np.maximum(j_blocks, 1) - 1
        ],
        0,
    )
    # Residue 1: l in [k_blocks * block, prefix_len), any value <= j.
    span = np.arange(block, dtype=np.int64)[None, :]
    l_res = k_blocks[:, None] * block + span
    padded_order = np.concatenate(
        (order, np.zeros(block, dtype=np.int64))
    )
    res_l = np.count_nonzero(
        (l_res < prefix_len[:, None])
        & (padded_order[l_res] <= query_prev[:, None]),
        axis=1,
    )
    # Residue 2: value in [j_blocks * block, j], l within the complete
    # l-blocks (values in partial l-blocks were counted by residue 1).
    v_res = j_blocks[:, None] * block + span
    padded_inverse = np.concatenate(
        (inverse, np.full(block, m, dtype=np.int64))
    )
    res_v = np.count_nonzero(
        (v_res <= query_prev[:, None])
        & (padded_inverse[v_res] < (k_blocks * block)[:, None]),
        axis=1,
    )
    counts = complete + res_l + res_v
    return counts
