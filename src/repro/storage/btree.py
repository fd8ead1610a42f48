"""Read-only B+-tree laid out in NumPy arrays.

One tree class serves as the clustered index (payload = all table columns,
key = row id), single-column secondary indexes (payload = row ids), and
composite-key secondary indexes (encoded keys, payload = row ids).

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
* **Bulk reads** slice the leaf arrays directly, while I/O is still
  charged per leaf page actually covered.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import StorageError
from repro.sim.disk import FileHandle
from repro.storage.bitmap import dedupe_sorted, position_table
from repro.storage.env import StorageEnv

_INNER_ENTRY_BYTES = 16  # separator key + child pointer


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
    (:meth:`rid_positions`) can never go stale.
    """

    __slots__ = (
        "keys",
        "payload",
        "leaf_starts",
        "leaf_pages",
        "_per_leaf",
        "_rid_positions",
    )

    def __init__(
        self,
        keys: np.ndarray,
        payload: dict[str, np.ndarray],
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

    def pages_of_leaves(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Sorted unique pages of non-decreasing leaf indices (repeats ok)."""
        return self.leaf_pages[dedupe_sorted(leaf_indices)]


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
        and takes the next pages, left to right.  Returns ``self`` for
        chaining.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size > 1 and np.any(np.diff(keys) < 0):
            raise StorageError("bulk_load requires keys in ascending order")
        if not 0.1 <= fill_factor <= 1.0:
            raise StorageError(f"fill_factor must be in [0.1, 1], got {fill_factor}")
        for column_name, values in payload.items():
            if len(values) != keys.size:
                raise StorageError(
                    f"payload column {column_name!r} length {len(values)} "
                    f"!= key count {keys.size}"
                )
        n_entries = int(keys.size)
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        n_leaves = max(1, -(-n_entries // per_leaf))  # an empty tree is one leaf
        level_sizes = [n_leaves]
        while level_sizes[-1] > 1:
            level_sizes.append(-(-level_sizes[-1] // self.inner_fanout))
        leaves = np.arange(n_leaves, dtype=np.int64)
        leaf_starts = np.minimum(
            np.arange(n_leaves + 1, dtype=np.int64) * per_leaf, n_entries
        )
        self.flat = _FlatView(
            keys,
            {name: np.asarray(values) for name, values in payload.items()},
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
        # Row j: the inner pages from the root down to leaf j's parent.
        # Leaf j's ancestor `level` levels up is node j // fanout**level
        # of that level, whose pages follow all pages of the levels below.
        self._leaf_paths = np.empty((n_leaves, self.height - 1), dtype=np.int64)
        first_page, leaves_per_node = 0, 1
        for level in range(1, self.height):
            first_page += level_sizes[level - 1]
            leaves_per_node *= self.inner_fanout
            self._leaf_paths[:, -level] = first_page + leaves // leaves_per_node
        return self

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def n_leaf_pages(self) -> int:
        return self.flat.n_leaves

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
        for page in self._leaf_paths[leaf].tolist():
            pool.get(self.handle, page)
        return leaf

    def probe_many(
        self,
        keys: np.ndarray,
        budget_check=None,
        budget_stride: int | None = None,
    ) -> np.ndarray:
        """Probe every key in sequence; returns per-key match counts.

        Charging is bit-identical to ``for k in keys: tree.probe(k)``.
        The full page-access trace of every probe (descent path, first
        leaf, duplicate-continuation leaves) is resolved up front by the
        vectorized LRU kernel (:meth:`BufferPool.plan_many`); the
        resulting per-miss read times and per-probe CPU charges are
        interleaved into one amounts vector in exact sequential order
        and applied through :meth:`SimClock.advance_many`, with disk
        statistics committed alongside (:meth:`Disk.commit_page_reads`)
        — pool hits advance no time and move no head, so the miss chain
        accumulates exactly like the loop.

        ``budget_check``, when given, fires at every index ``i`` with
        ``i % budget_stride == budget_stride - 1`` (the loop calls it
        after every probe; callers' checks ignore the other indexes)
        while the clock holds exactly the value the per-probe loop would
        show there — censored (budget-aborted) runs therefore abort at
        the same probe with the same clock in both modes, with identical
        disk statistics at the abort point.
        """
        keys = np.ascontiguousarray(np.asarray(keys), dtype=np.int64)
        n = int(keys.size)
        flat = self.flat
        # Search in key order (each search starts where the last one
        # ended), then scatter the bounds back to probe order.
        order = np.argsort(keys)
        in_order = keys[order]
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        lo[order] = np.searchsorted(flat.keys, in_order, side="left")
        hi[order] = np.searchsorted(flat.keys, in_order, side="right")
        counts = hi - lo
        if n == 0:
            return counts

        n_entries = flat.n_entries
        n_leaves = flat.n_leaves
        # Leaf the descent lands on (see _charge_inner_path): bisecting
        # the separators (each leaf's first key) stops at the leaf that
        # holds the last entry below the key, or at leaf 0.
        first_leaf = flat.leaf_index_of(np.maximum(lo - 1, 0))
        # Last leaf the duplicate-continuation walk visits: the walk
        # advances while the key's upper bound lies at/past the end of
        # the current leaf, i.e. up to the leaf containing position
        # ``hi`` (the last leaf when ``hi`` is past every entry).
        last_leaf = np.where(
            hi >= n_entries,
            n_leaves - 1,
            flat.leaf_index_of(np.minimum(hi, max(0, n_entries - 1)))
            if n_entries
            else 0,
        )
        last_leaf = np.maximum(first_leaf, last_leaf)

        # Page sequence of every probe: the descent's inner path + its
        # first leaf (charged before the probe CPU), then any
        # continuation leaves (charged after).
        descent_len = self.height
        descent_pages = np.concatenate(
            [
                self._leaf_paths[first_leaf],
                flat.leaf_pages[first_leaf][:, None],
            ],
            axis=1,
        )
        continuation_counts = last_leaf - first_leaf
        per_probe = descent_len + continuation_counts
        offsets = np.concatenate(([0], np.cumsum(per_probe)))
        all_pages = np.empty(int(offsets[-1]), dtype=np.int64)
        descent_positions = offsets[:-1, None] + np.arange(descent_len)
        all_pages[descent_positions.ravel()] = descent_pages.ravel()
        continuation_positions = _ragged_arange(
            offsets[:-1] + descent_len, offsets[1:]
        )
        continuation_leaves = _ragged_arange(first_leaf + 1, last_leaf + 1)
        all_pages[continuation_positions] = flat.leaf_pages[continuation_leaves]

        # The kernel declines only negative page numbers; a tree has none.
        planned = self._env.pool.plan_many(self.handle, all_pages)
        assert planned is not None
        self._charge_probes_planned(
            planned, all_pages, offsets, descent_len, n,
            budget_check, budget_stride,
        )
        return counts

    def _charge_probes_planned(
        self,
        planned,
        all_pages: np.ndarray,
        offsets: np.ndarray,
        descent_len: int,
        n: int,
        budget_check,
        budget_stride: int | None,
    ) -> None:
        """Charge a kernel-planned probe batch, bit-identical to the loop.

        Builds the exact charge sequence of the per-probe loop — for
        probe ``b``: its ``descent_len`` page accesses, one probe-CPU
        charge, then its continuation accesses — as one amounts vector
        (pool hits contribute ``0.0``, which is additively inert), and
        advances the clock over it in chunks ending at each
        budget-stride boundary.  Disk statistics for the misses covered
        by each chunk are committed before its boundary check, so a
        censored run's recorded I/O delta matches the sequential loop's
        at the abort point.  Pool stats and the final LRU state land
        once at the end (a budget abort leaves the pool untouched;
        measurements cold-reset the pool after an abort, so this is
        unobservable).
        """
        env = self._env
        pool = env.pool
        disk = env.disk
        clock = env.clock
        unit = 1 * env.profile.btree_probe_cpu  # identical to charge_cpu(1, ...)
        n_access = int(all_pages.size)
        miss_idx = planned.miss_positions
        reads = (
            disk.plan_page_reads(self.handle, all_pages[miss_idx])
            if miss_idx.size
            else None
        )
        # Slot layout: probe b owns slots [offsets[b] + b, offsets[b+1] + b],
        # one per page access plus one for its CPU charge, placed after
        # the first descent_len accesses.
        per_probe = offsets[1:] - offsets[:-1]
        probe_of_access = np.repeat(np.arange(n, dtype=np.int64), per_probe)
        within_probe = (
            np.arange(n_access, dtype=np.int64) - offsets[:-1][probe_of_access]
        )
        access_slots = (
            np.arange(n_access, dtype=np.int64)
            + probe_of_access
            + (within_probe >= descent_len)
        )
        cpu_slots = offsets[:-1] + descent_len + np.arange(n, dtype=np.int64)
        amounts = np.zeros(n_access + n, dtype=np.float64)
        amounts[cpu_slots] = unit
        if reads is not None:
            amounts[access_slots[miss_idx]] = reads.elapsed
        # First slot after probe b's charges complete.
        probe_end_slot = offsets[1:] + np.arange(1, n + 1, dtype=np.int64)

        flushed_slots = 0
        committed_reads = 0

        def flush(up_to_probe: int) -> None:
            """Charge everything up to (excluding) probe ``up_to_probe``."""
            nonlocal flushed_slots, committed_reads
            slot_hi = int(probe_end_slot[up_to_probe - 1])
            clock.advance_many(amounts[flushed_slots:slot_hi])
            flushed_slots = slot_hi
            if reads is not None:
                read_hi = int(
                    np.searchsorted(miss_idx, int(offsets[up_to_probe]))
                )
                disk.commit_page_reads(
                    self.handle, reads, committed_reads, read_hi
                )
                committed_reads = read_hi

        if budget_check is not None:
            stride = int(budget_stride) if budget_stride else 1
            boundary = stride - 1
            done = 0
            while boundary < n:
                flush(boundary + 1)
                done = boundary + 1
                budget_check(boundary)
                boundary += stride
            if done < n:
                flush(n)
        else:
            flush(n)
        pool.commit_many(planned)

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
        return flat.keys, dict(flat.payload)
