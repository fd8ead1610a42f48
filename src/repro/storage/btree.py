"""Read-only B+-tree laid out in NumPy arrays.

One tree class serves single-column secondary indexes (payload = row
ids) and composite-key secondary indexes (encoded keys, payload = row
ids).  A table's clustered index registers its data file here and takes
its geometry from :meth:`BPlusTree.levels_for`, but its dense row-id keys
make the leaf level arithmetic, so it is never loaded
(:class:`~repro.storage.table.Table`).

Design notes
------------
* **One representation.**  A tree is bulk-loaded once and never changes.
  The sorted key and payload arrays handed to :meth:`BPlusTree.bulk_load`
  *are* the leaf level: leaf ``j`` is the slice
  ``[j * per_leaf, (j + 1) * per_leaf)`` of them, nothing is copied, and
  everything above the leaves (page numbers, height, separators, the
  root-to-parent page path of every leaf) is arithmetic on the leaf
  count and the inner fanout.
* **Page numbers.**  Leaves take pages ``0..L-1``, then each inner level
  left to right, so a full leaf scan is charged as sequential I/O.
* **Point probes** (:meth:`BPlusTree.probe`) charge one buffer-pool
  access per page on the root-to-leaf path, one key at a time; it is the
  sequential reference :meth:`BPlusTree.probe_many` is tested against.
* **Probe batches** (:meth:`BPlusTree.probe_many`) take one of two
  regimes by the pool's one no-eviction rule
  (:meth:`~repro.storage.buffer_pool.BufferPool.fits`), asked over the
  tree's pages: if no access can evict, the batch is charged from each
  page's first and last touch, found from the probes' first and last
  leaves, with no page trace built; otherwise the batch's whole page
  trace is built and the pool simulates it window by window.
* **Bulk reads** slice the leaf arrays directly, while I/O is still
  charged per leaf page actually covered.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import StorageError
from repro.sim.disk import FileHandle
from repro.storage.bitmap import position_table
from repro.storage.env import StorageEnv

_INNER_ENTRY_BYTES = 16  # separator key + child pointer

_INT64 = np.iinfo(np.int64)

#: Key span per entry up to which a lookup counts keys instead of
#: searching them (:meth:`_FlatView.key_bounds`,
#: :func:`~repro.executor.joins.join_matches`).  Counting costs O(span)
#: and sorting O(rows log rows); measured with NumPy 2.4 on one Xeon
#: core, they break even near three span units per row, and this stays
#: below that.
DENSE_SPAN_PER_ROW = 2


def _ragged_arange(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) integer ranges, vectorized."""
    counts = np.maximum(ends - starts, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


class _FlatView:
    """The leaf level: sorted keys, aligned payload columns, leaf bounds.

    The tree never changes after its bulk load, so what the view caches
    (:meth:`rid_positions`, the table :meth:`key_bounds` counts with) can
    never go stale.
    """

    __slots__ = (
        "keys",
        "payload",
        "leaf_starts",
        "leaf_pages",
        "_per_leaf",
        "_rid_positions",
        "_bounds_table",
    )

    def __init__(
        self,
        keys: np.ndarray,
        payload: Mapping[str, np.ndarray],
        leaf_starts: np.ndarray,
        leaf_pages: np.ndarray,
        per_leaf: int,
    ) -> None:
        self.keys = keys
        self.payload = payload
        self.leaf_starts = leaf_starts  # length n_leaves + 1, prefix offsets
        self.leaf_pages = leaf_pages  # page number of each leaf, ascending
        self._per_leaf = per_leaf  # entries in every leaf but the last
        self._rid_positions: np.ndarray | None = None
        self._bounds_table: np.ndarray | None = None

    def rid_positions(self) -> np.ndarray:
        """Cached rid -> flat position inverse of the ``rid`` payload.

        ``rid_positions()[rid]`` is where a secondary index keeps ``rid``
        (``-1`` if it holds no such rid), which turns a rid join against
        the whole index into a gather
        (:func:`repro.storage.bitmap.probe_rids`).
        """
        if self._rid_positions is None:
            self._rid_positions = position_table(self.payload["rid"])
        return self._rid_positions

    def key_bounds(self, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions ``[lo, hi)`` of the entries equal to each probe.

        Over a dense key span — at most :data:`DENSE_SPAN_PER_ROW` span
        units per entry and probe, the rule by which
        :func:`~repro.executor.joins.join_matches` counts a join's keys
        — the view caches a cumulative-count table, and every later
        lookup is two gathers from it.  Otherwise it searches the sorted
        keys, probes in key order (each search starts where the last one
        ended).
        """
        keys = self.keys
        n = int(keys.size)
        if (
            self._bounds_table is None
            and n
            and _INT64.min < keys[0]
            and keys[-1] < _INT64.max
            and int(keys[-1]) - int(keys[0]) < DENSE_SPAN_PER_ROW * (n + probes.size)
        ):
            # table[k - low + 1] counts the entries below key k and
            # table[k - low + 2] those up to it; its ends stand for every
            # key below the lowest and above the highest.
            counts = np.bincount(keys - keys[0])
            self._bounds_table = np.concatenate(([0, 0], np.cumsum(counts), [n]))
        if self._bounds_table is not None:
            low, high = int(keys[0]), int(keys[-1])
            at = np.clip(probes, low - 1, high + 1) - (low - 1)
            return self._bounds_table[at], self._bounds_table[1:][at]
        order = np.argsort(probes)
        in_order = probes[order]
        lo = np.empty(probes.size, dtype=np.int64)
        hi = np.empty(probes.size, dtype=np.int64)
        lo[order] = np.searchsorted(keys, in_order, side="left")
        hi[order] = np.searchsorted(keys, in_order, side="right")
        return lo, hi

    @property
    def n_entries(self) -> int:
        return int(self.keys.size)

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_pages.size)

    def leaf_index_of(self, positions: np.ndarray) -> np.ndarray:
        """Leaf index (chain order) containing each flat position.

        Positions must lie in ``[0, n_entries)``.
        """
        return np.asarray(positions) // self._per_leaf


class BPlusTree:
    """Disk-resident read-only B+-tree over int64 keys (see module docstring).

    ``height`` is the number of levels (1 = the root is a leaf) and
    ``n_pages`` the pages the tree occupies; both are set by
    :meth:`bulk_load`, before which the tree is empty.
    """

    def __init__(
        self,
        env: StorageEnv,
        name: str,
        entry_bytes: int = 16,
        leaf_capacity: int | None = None,
        inner_fanout: int | None = None,
    ) -> None:
        if entry_bytes <= 0:
            raise StorageError(f"entry_bytes must be positive, got {entry_bytes}")
        self._env = env
        self.name = name
        self.entry_bytes = entry_bytes
        profile = env.profile
        self.leaf_capacity = leaf_capacity or max(2, profile.page_size // entry_bytes)
        self.inner_fanout = inner_fanout or max(
            4, profile.page_size // _INNER_ENTRY_BYTES
        )
        self.handle: FileHandle = env.disk.create_file(name)
        self.bulk_load(np.empty(0, dtype=np.int64), {})

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        keys: np.ndarray,
        payload: Mapping[str, np.ndarray],
        fill_factor: float = 1.0,
    ) -> "BPlusTree":
        """Lay the tree out over sorted keys and aligned payload columns.

        The arrays are kept, not copied: they are the leaf level, cut
        into leaves of ``leaf_capacity * fill_factor`` entries on
        consecutive pages, so a leaf scan is physically sequential.
        Each inner level groups ``inner_fanout`` nodes of the level below
        and takes the next pages, left to right.  The level sizes come
        from :meth:`levels_for`, which answers them for a tree not yet
        loaded.  Returns ``self`` for chaining.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size > 1 and np.any(np.diff(keys) < 0):
            raise StorageError("bulk_load requires keys in ascending order")
        if not 0.1 <= fill_factor <= 1.0:
            raise StorageError(f"fill_factor must be in [0.1, 1], got {fill_factor}")
        payload = {name: np.asarray(values) for name, values in payload.items()}
        for column_name, values in payload.items():
            if len(values) != keys.size:
                raise StorageError(
                    f"payload column {column_name!r} length {len(values)} "
                    f"!= key count {keys.size}"
                )
        n_entries = int(keys.size)
        per_leaf, level_sizes = self.levels_for(n_entries, fill_factor)
        n_leaves = level_sizes[0]
        leaves = np.arange(n_leaves, dtype=np.int64)
        leaf_starts = np.minimum(
            np.arange(n_leaves + 1, dtype=np.int64) * per_leaf, n_entries
        )
        self.flat = _FlatView(
            keys,
            payload,
            leaf_starts,
            leaves,
            per_leaf,
        )
        self.height = len(level_sizes)
        self.n_pages = sum(level_sizes)
        # Every inner node's separators, concatenated in key sequence: the
        # one between leaves j-1 and j is leaf j's first key, whichever
        # level stores it.
        self._separators = keys[leaf_starts[1:-1]]
        # Row j: the pages a descent to leaf j visits, root first, leaf j
        # last.  Leaf j's ancestor `level` levels up is node
        # j // fanout**level of that level, whose pages follow all pages
        # of the levels below.
        self._descents = np.empty((n_leaves, self.height), dtype=np.int64)
        self._descents[:, -1] = leaves
        first_page, leaves_per_node = 0, 1
        for level in range(1, self.height):
            first_page += level_sizes[level - 1]
            leaves_per_node *= self.inner_fanout
            self._descents[:, -1 - level] = first_page + leaves // leaves_per_node
        return self

    def levels_for(
        self, n_entries: int, fill_factor: float = 1.0
    ) -> tuple[int, list[int]]:
        """Entries per leaf and the node count of every level, leaves
        first, of this tree bulk-loaded over ``n_entries`` entries.

        The one geometry formula: :meth:`bulk_load` lays a tree out by
        it, and what a cost model reads of a tree not yet loaded (leaf
        pages, height) is read from it, so no index is sorted to be
        priced.  An empty tree is one leaf.
        """
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        level_sizes = [max(1, -(-n_entries // per_leaf))]
        while level_sizes[-1] > 1:
            level_sizes.append(-(-level_sizes[-1] // self.inner_fanout))
        return per_leaf, level_sizes

    # ------------------------------------------------------------------
    # point operations (charge per page on the path)
    # ------------------------------------------------------------------

    def _charge_inner_path(self, key: int) -> int:
        """Charge the inner pages a descent for ``key`` visits, root first.

        Returns the leaf the descent lands on: taking ``bisect_left``
        over a node's separators at every level composes to one
        ``searchsorted`` over all separators in key sequence.
        """
        leaf = int(np.searchsorted(self._separators, key, side="left"))
        pool = self._env.pool
        for page in self._descents[leaf, :-1].tolist():
            pool.get(self.handle, page)
        return leaf

    def probe_many(
        self, keys: np.ndarray, budget=None, budget_stride: int = 1
    ) -> np.ndarray:
        """Probe every key in sequence; returns per-key match counts.

        Charging is bit-identical to ``for k in keys: tree.probe(k)``,
        whose accesses form the batch's page trace (each probe's descent
        path, first leaf, then duplicate-continuation leaves), with each
        probe's CPU unit placed after its descent.  Which of two regimes
        charges it follows the pool's no-eviction rule,
        :meth:`BufferPool.fits`, over the tree's pages ``0`` to
        ``n_pages - 1`` and the batch's accesses.

        * **No access can evict** (the rule holds).  No trace is built:
          :meth:`_touches` finds each page's first and last access from
          the probes' first and last leaves alone, and
          :meth:`BufferPool.charge_touches` charges a miss at each first
          touch of a page not resident, a hit for every other access,
          and orders the residents by last touch.
        * **Accesses may evict.**  The whole trace is built and charged
          through :meth:`BufferPool.charge_trace`, which simulates it
          window by window; it is the reference the other regime is
          tested against.

        ``budget`` (duck-typed: ``over_budget`` and ``check_budget``, as
        :class:`~repro.executor.context.ExecContext` has them), when
        given, is checked after every ``budget_stride``-th probe, as a
        loop that calls ``budget.check_budget()`` there would.  A budget
        that fails aborts the batch at the same probe as that loop,
        with the same clock and disk statistics, and leaves the pool
        untouched.
        """
        keys = np.ascontiguousarray(np.asarray(keys), dtype=np.int64)
        n = int(keys.size)
        flat = self.flat
        lo, hi = flat.key_bounds(keys)
        counts = hi - lo
        if n == 0:
            return counts

        n_entries = flat.n_entries
        # Leaf the descent lands on (see _charge_inner_path): bisecting
        # the separators (each leaf's first key) stops at the leaf that
        # holds the last entry below the key, or at leaf 0.
        first_leaf = flat.leaf_index_of(np.maximum(lo - 1, 0))
        # Last leaf the duplicate-continuation walk visits: the walk
        # advances while the key's upper bound lies at/past the end of
        # the current leaf, i.e. up to the leaf containing position
        # ``hi`` (the last leaf when ``hi`` is past every entry: every
        # leaf but the last is full, so that is the leaf of the last
        # entry).  ``hi >= max(lo - 1, 0)``, so it is never before the
        # first leaf.
        last_leaf = (
            flat.leaf_index_of(np.minimum(hi, n_entries - 1))
            if n_entries
            else first_leaf
        )

        # Probe b's accesses are trace positions offsets[b] to
        # offsets[b + 1]: its descent, root to first leaf (charged
        # before the probe CPU), then any continuation leaves (charged
        # after).
        descent_len = self.height
        extra = last_leaf - first_leaf
        offsets = np.arange(n + 1, dtype=np.int64) * descent_len
        offsets[1:] += np.cumsum(extra)
        checks = offsets[budget_stride::budget_stride] if budget is not None else ()
        # Probe b's CPU unit lands after its descent, before any
        # continuation leaf.
        cpu_after = offsets[:-1] + descent_len
        cpu_unit = self._env.profile.btree_probe_cpu
        pool = self._env.pool
        if pool.fits(self.handle, 0, self.n_pages - 1, int(offsets[-1])):
            pages, first, last = self._touches(first_leaf, last_leaf, offsets)
            pool.charge_touches(
                self.handle,
                pages,
                first,
                last,
                int(offsets[-1]),
                budget,
                checks,
                cpu_after,
                cpu_unit,
            )
            return counts

        walking = np.flatnonzero(extra)
        all_pages = np.insert(
            np.take(self._descents, first_leaf, axis=0).ravel(),
            np.repeat((walking + 1) * descent_len, extra[walking]),
            flat.leaf_pages[
                _ragged_arange(first_leaf[walking] + 1, last_leaf[walking] + 1)
            ],
        )
        pool.charge_trace(
            self.handle, all_pages, budget, checks, cpu_after, cpu_unit
        )
        return counts

    def _touches(
        self, first_leaf: np.ndarray, last_leaf: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pages a probe batch touches, with the trace positions of
        each one's first and last access.

        Probe ``b`` descends to leaf ``first_leaf[b]``, whose access is
        at position ``offsets[b] + height - 1`` and its ancestor
        ``level`` levels up ``level`` positions before, then walks on to
        ``last_leaf[b]``, one position per leaf.  So a leaf is first
        touched by the first probe that lands on it or walks through it,
        an inner page by the first probe that descends beneath it, and
        the same holds for the last touch.
        """
        height = self.height
        leaf_at = offsets[:-1] + (height - 1)
        no_touch = np.iinfo(np.int64).max
        # Per leaf: the first and last descent that lands on it.
        landed_first = np.full(self.flat.n_leaves, no_touch)
        landed_last = np.full(self.flat.n_leaves, -1)
        np.minimum.at(landed_first, first_leaf, leaf_at)
        np.maximum.at(landed_last, first_leaf, leaf_at)
        first = np.full(self.n_pages, no_touch)
        last = np.full(self.n_pages, -1)
        leaves = self._descents[:, -1]
        first[leaves] = landed_first
        last[leaves] = landed_last
        landed = np.flatnonzero(landed_last >= 0)
        above = np.arange(height - 1, 0, -1)  # levels above the leaf, root first
        ancestors = self._descents[landed, :-1].ravel()
        np.minimum.at(first, ancestors, (landed_first[landed, None] - above).ravel())
        np.maximum.at(last, ancestors, (landed_last[landed, None] - above).ravel())
        walking = np.flatnonzero(last_leaf > first_leaf)
        walked = _ragged_arange(first_leaf[walking] + 1, last_leaf[walking] + 1)
        walked_at = walked + np.repeat(
            leaf_at[walking] - first_leaf[walking],
            last_leaf[walking] - first_leaf[walking],
        )
        np.minimum.at(first, leaves[walked], walked_at)
        np.maximum.at(last, leaves[walked], walked_at)
        pages = np.flatnonzero(last >= 0)
        return pages, first[pages], last[pages]

    def probe(self, key: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Return (keys, payload) of entries equal to ``key`` (may be empty).

        Charges one pool access per page on the root-to-leaf path plus
        probe CPU, then one per further leaf that duplicates of ``key``
        run into.  Returns NumPy views — callers must not mutate them.
        """
        flat = self.flat
        start, end = self.span_for_range(key, key)
        pool = self._env.pool
        leaf = self._charge_inner_path(key)
        pool.get(self.handle, int(flat.leaf_pages[leaf]))
        self._env.charge_cpu(1, self._env.profile.btree_probe_cpu)
        # Follow the leaf chain until a key beyond the target shows:
        # while the target's upper bound lies at or past the end of
        # the current leaf and there is a next one.
        while leaf + 1 < flat.n_leaves and end >= flat.leaf_starts[leaf + 1]:
            leaf += 1
            pool.get(self.handle, int(flat.leaf_pages[leaf]))
        return self._entries(start, end)

    # ------------------------------------------------------------------
    # bulk reads (leaf arrays, streamed I/O)
    # ------------------------------------------------------------------

    def _entries(
        self, start: int, end: int
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Views of the leaf arrays over flat positions [start, end)."""
        flat = self.flat
        payload = {name: values[start:end] for name, values in flat.payload.items()}
        return flat.keys[start:end], payload

    def span_for_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Flat positions [start, end) of keys in the inclusive [lo, hi]."""
        flat = self.flat
        start = int(np.searchsorted(flat.keys, lo, side="left"))
        end = int(np.searchsorted(flat.keys, hi, side="right"))
        return start, end

    def read_range(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Read all entries with key in the inclusive range [lo, hi].

        Charges one descent (to locate the range) plus streamed reads of
        every leaf page the range covers.  Returns NumPy views — callers
        must not mutate them.
        """
        flat = self.flat
        start, end = self.span_for_range(lo, hi)
        self._charge_inner_path(lo)
        self._env.charge_cpu(1, self._env.profile.btree_probe_cpu)
        if end > start:
            first = flat.leaf_index_of(start)
            last = flat.leaf_index_of(end - 1)
            self._env.disk.read_scattered(
                self.handle, flat.leaf_pages[first : last + 1]
            )
        return self._entries(start, end)

    def scan_all(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Full leaf scan in key order (physically sequential)."""
        flat = self.flat
        if flat.n_entries:
            self._env.disk.read_scattered(self.handle, flat.leaf_pages)
        return flat.keys, MappingProxyType(flat.payload)
