"""B+-tree with fat NumPy leaves.

One tree class serves as the clustered index (payload = all table columns,
key = row id), single-column secondary indexes (payload = row ids), and
composite-key secondary indexes (encoded keys, payload = row ids).

Design notes
------------
* **Bulk load** places leaves on consecutive page numbers, which is why a
  full leaf scan is charged as sequential I/O; nodes created later by
  splits get fresh page numbers at the end of the file, so a heavily
  updated tree genuinely loses scan locality.
* **Point operations** (probe, insert, delete) walk the real node
  structure and charge one buffer-pool access per node on the path.
* **Bulk reads** use a lazily rebuilt *flat view* (all keys/payloads
  concatenated, plus leaf boundary offsets) so NumPy does the heavy
  lifting, while I/O is still charged per leaf page actually covered.
* **Deletion policy** is free-at-empty (nodes are unlinked only when they
  become empty, as in Johnson & Shasha's free-at-empty B-trees) — simpler
  than eager rebalancing and sufficient for the workloads here; the
  ``validate()`` invariants reflect that policy.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Mapping

import numpy as np

from repro.errors import StorageError
from repro.sim.disk import FileHandle
from repro.storage.bitmap import dedupe_sorted, position_table
from repro.storage.env import StorageEnv

_INNER_ENTRY_BYTES = 16  # separator key + child pointer


class _Leaf:
    __slots__ = ("keys", "payload", "next_leaf", "page_no")

    def __init__(
        self,
        keys: np.ndarray,
        payload: dict[str, np.ndarray],
        page_no: int,
    ) -> None:
        self.keys = keys
        self.payload = payload
        self.next_leaf: "_Leaf | None" = None
        self.page_no = page_no

    @property
    def n_entries(self) -> int:
        return int(self.keys.size)


class _Inner:
    __slots__ = ("separators", "children", "page_no")

    def __init__(self, separators: list[int], children: list, page_no: int) -> None:
        self.separators = separators
        self.children = children
        self.page_no = page_no


def _ragged_arange(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) integer ranges, vectorized."""
    counts = np.maximum(ends - starts, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


class _DescentIndex:
    """Vectorized descent metadata for one tree shape.

    ``boundaries`` is the in-order concatenation of every inner node's
    separators; when that sequence is non-decreasing (and the tree shape
    is regular — see ``ordered``), a per-level ``bisect_left`` descent
    lands on leaf ``searchsorted(boundaries, key, side="left")``, so a
    whole key batch descends in one call.  ``leaf_paths[j]`` holds the
    inner-node page numbers on the root→parent path of leaf ``j`` (every
    path has the same length in a regular tree), which is what descent
    I/O charging needs.
    """

    __slots__ = ("boundaries", "leaf_paths", "ordered")

    def __init__(
        self, boundaries: np.ndarray, leaf_paths: np.ndarray, ordered: bool
    ) -> None:
        self.boundaries = boundaries
        self.leaf_paths = leaf_paths
        self.ordered = ordered


class _FlatView:
    """Concatenated leaf contents plus leaf boundary metadata.

    The view is rebuilt on any mutation, so what it caches
    (:meth:`unique_leaf_pages`, :meth:`rid_positions`) can never go stale.
    """

    __slots__ = (
        "keys",
        "payload",
        "leaf_starts",
        "leaf_pages",
        "_leaf_stride",
        "_pages_ascending",
        "_unique_pages",
        "_rid_positions",
    )

    def __init__(
        self,
        keys: np.ndarray,
        payload: dict[str, np.ndarray],
        leaf_starts: np.ndarray,
        leaf_pages: np.ndarray,
    ) -> None:
        self.keys = keys
        self.payload = payload
        self.leaf_starts = leaf_starts  # length n_leaves + 1, prefix offsets
        self.leaf_pages = leaf_pages  # page number of each leaf, chain order
        # Entries per leaf when every leaf but the last holds exactly that
        # many (a bulk load), else 0; and whether pages ascend along the
        # chain (consecutive after a bulk load).  Splits break both.
        counts = np.diff(leaf_starts)  # a tree has at least one leaf
        stride = int(counts[0])
        uniform = bool(np.all(counts[:-1] == stride)) and int(counts[-1]) <= stride
        self._leaf_stride = stride if uniform else 0
        self._pages_ascending = bool(np.all(leaf_pages[1:] > leaf_pages[:-1]))
        self._unique_pages: np.ndarray | None = None
        self._rid_positions: np.ndarray | None = None

    def unique_leaf_pages(self) -> np.ndarray:
        """Sorted leaf page numbers, cached: full scans reuse them every
        measurement."""
        if self._unique_pages is None:
            self._unique_pages = self._sorted_pages(self.leaf_pages)
        return self._unique_pages

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
        if self._leaf_stride:
            return np.asarray(positions) // self._leaf_stride
        return np.searchsorted(self.leaf_starts, positions, side="right") - 1

    def _sorted_pages(self, pages: np.ndarray) -> np.ndarray:
        """Ascending pages of distinct leaves given in chain order.

        Every leaf owns its page, so the pages are already unique; they
        only need sorting once splits have put leaves out of page order.
        """
        return pages if self._pages_ascending else np.sort(pages)

    def pages_of_leaves(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Sorted unique pages of non-decreasing leaf indices (repeats ok)."""
        return self._sorted_pages(self.leaf_pages[dedupe_sorted(leaf_indices)])

    def pages_for_span(self, start: int, end: int) -> np.ndarray:
        """Sorted unique page numbers of leaves overlapping [start, end)."""
        if end <= start:
            return np.empty(0, dtype=np.int64)
        first = int(np.searchsorted(self.leaf_starts, start, side="right") - 1)
        last = int(np.searchsorted(self.leaf_starts, end - 1, side="right") - 1)
        return self._sorted_pages(self.leaf_pages[first : last + 1])


class BPlusTree:
    """Disk-resident B+-tree over int64 keys (see module docstring)."""

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
        self._next_page = 0
        self._root: _Leaf | _Inner = _Leaf(
            np.empty(0, dtype=np.int64), {}, self._allocate_page()
        )
        self._first_leaf: _Leaf = self._root
        self._payload_names: tuple[str, ...] = ()
        self._flat: _FlatView | None = None
        self._descent: _DescentIndex | None = None
        self._descent_flat: _FlatView | None = None
        self._n_entries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _allocate_page(self) -> int:
        page = self._next_page
        self._next_page += 1
        return page

    def bulk_load(
        self,
        keys: np.ndarray,
        payload: Mapping[str, np.ndarray],
        fill_factor: float = 1.0,
    ) -> "BPlusTree":
        """Build the tree from sorted keys and aligned payload columns.

        Leaves receive consecutive page numbers so that a post-load leaf
        scan is physically sequential.  Returns ``self`` for chaining.
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
        self._payload_names = tuple(payload)
        self._next_page = 0
        self._n_entries = int(keys.size)
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))

        leaves: list[_Leaf] = []
        if keys.size == 0:
            leaves.append(_Leaf(keys, {n: np.asarray(v) for n, v in payload.items()}, self._allocate_page()))
        else:
            for start in range(0, keys.size, per_leaf):
                stop = min(start + per_leaf, keys.size)
                chunk_payload = {
                    name: np.asarray(values[start:stop]) for name, values in payload.items()
                }
                leaves.append(_Leaf(keys[start:stop], chunk_payload, self._allocate_page()))
        for left, right in zip(leaves, leaves[1:]):
            left.next_leaf = right
        self._first_leaf = leaves[0]

        level: list[_Leaf | _Inner] = list(leaves)
        while len(level) > 1:
            parents: list[_Leaf | _Inner] = []
            for start in range(0, len(level), self.inner_fanout):
                group = level[start : start + self.inner_fanout]
                separators = [self._min_key(node) for node in group[1:]]
                parents.append(_Inner(separators, list(group), self._allocate_page()))
            level = parents
        self._root = level[0]
        self._flat = None
        return self

    @staticmethod
    def _min_key(node: "_Leaf | _Inner") -> int:
        while isinstance(node, _Inner):
            node = node.children[0]
        if node.keys.size == 0:
            raise StorageError("empty leaf has no minimum key")
        return int(node.keys[0])

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def height(self) -> int:
        """Number of levels (1 = root is a leaf)."""
        levels = 1
        node = self._root
        while isinstance(node, _Inner):
            levels += 1
            node = node.children[0]
        return levels

    @property
    def n_pages(self) -> int:
        """Pages ever allocated to this tree."""
        return self._next_page

    @property
    def n_leaves(self) -> int:
        return self.flat.n_leaves

    @property
    def n_leaf_pages(self) -> int:
        return self.flat.n_leaves

    @property
    def flat(self) -> _FlatView:
        """The flat (concatenated-leaves) view, rebuilt after mutations."""
        if self._flat is None:
            self._flat = self._build_flat()
        return self._flat

    def _build_flat(self) -> _FlatView:
        key_chunks: list[np.ndarray] = []
        payload_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in self._payload_names
        }
        starts = [0]
        pages = []
        leaf: _Leaf | None = self._first_leaf
        total = 0
        while leaf is not None:
            key_chunks.append(leaf.keys)
            for name in self._payload_names:
                payload_chunks[name].append(leaf.payload[name])
            total += leaf.n_entries
            starts.append(total)
            pages.append(leaf.page_no)
            leaf = leaf.next_leaf
        keys = (
            np.concatenate(key_chunks) if key_chunks else np.empty(0, dtype=np.int64)
        )
        payload = {
            name: (
                np.concatenate(chunks)
                if chunks
                else np.empty(0)
            )
            for name, chunks in payload_chunks.items()
        }
        return _FlatView(
            keys,
            payload,
            np.asarray(starts, dtype=np.int64),
            np.asarray(pages, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # point operations (walk the real structure, charge per node)
    # ------------------------------------------------------------------

    def _descend(self, key: int, for_insert: bool = False) -> list[tuple[_Inner, int]]:
        """Path of (inner node, taken child index) from root to leaf parent."""
        path: list[tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            if for_insert:
                child_idx = bisect.bisect_right(node.separators, key)
            else:
                child_idx = bisect.bisect_left(node.separators, key)
            path.append((node, child_idx))
            node = node.children[child_idx]
        return path

    def _charge_descent(self, path: list[tuple[_Inner, int]], leaf: _Leaf | None) -> None:
        pool = self._env.pool
        for inner, _child in path:
            pool.get(self.handle, inner.page_no)
        if leaf is not None:
            pool.get(self.handle, leaf.page_no)
        self._env.charge_cpu(1, self._env.profile.btree_probe_cpu)

    def _leaf_for(self, path: list[tuple[_Inner, int]]) -> _Leaf:
        node = self._root if not path else path[-1][0].children[path[-1][1]]
        if isinstance(node, _Inner):  # pragma: no cover - defensive
            raise StorageError("descent did not reach a leaf")
        return node

    def _descent_index(self) -> _DescentIndex:
        """The cached :class:`_DescentIndex`, rebuilt when the flat view is."""
        flat = self.flat
        if self._descent is None or self._descent_flat is not flat:
            self._descent = self._build_descent(flat)
            self._descent_flat = flat
        return self._descent

    def _build_descent(self, flat: _FlatView) -> _DescentIndex:
        boundaries: list[int] = []
        paths: list[tuple[int, ...]] = []
        leaf_pages: list[int] = []

        def walk(node: "_Leaf | _Inner", path: tuple[int, ...]) -> None:
            if isinstance(node, _Inner):
                child_path = path + (node.page_no,)
                for index, child in enumerate(node.children):
                    if index:
                        boundaries.append(int(node.separators[index - 1]))
                    walk(child, child_path)
            else:
                paths.append(path)
                leaf_pages.append(node.page_no)

        walk(self._root, ())
        depths = {len(path) for path in paths}
        ordered = (
            len(depths) == 1
            and len(boundaries) == len(leaf_pages) - 1
            and leaf_pages == flat.leaf_pages.tolist()
            and all(a <= b for a, b in zip(boundaries, boundaries[1:]))
            and (
                flat.n_leaves <= 1
                or bool(np.all(np.diff(flat.leaf_starts) > 0))
            )
        )
        boundary_arr = np.asarray(boundaries, dtype=np.int64)
        path_arr = (
            np.asarray(paths, dtype=np.int64)
            if ordered
            else np.empty((len(paths), 0), dtype=np.int64)
        )
        return _DescentIndex(boundary_arr, path_arr, ordered)

    def probe_many(
        self,
        keys: np.ndarray,
        charge: bool = True,
        budget_check=None,
        budget_stride: int | None = None,
    ) -> np.ndarray:
        """Probe every key in sequence; returns per-key match counts.

        Charging is bit-identical to ``for k in keys: tree.probe(k)``.
        With no pinned pages, the full page-access trace of every probe
        (descent path, first leaf, duplicate-continuation leaves) is
        resolved up front by the vectorized LRU kernel
        (:meth:`BufferPool.plan_many`); the resulting per-miss read
        times and per-probe CPU charges are interleaved into one amounts
        vector in exact sequential order and applied through
        :meth:`SimClock.advance_many`, with disk statistics committed
        alongside (:meth:`Disk.commit_page_reads`) — pool hits advance
        no time and move no head, so the miss chain accumulates exactly
        like the loop.  When any page is pinned the trace is instead
        replayed one probe at a time until every page any remaining
        probe can touch is pool-resident, then the rest is charged in
        two vectorized aggregates.  Irregular trees (non-monotone
        in-order separators after heavy mutation) fall back to the plain
        probe loop.

        ``budget_check``, when given, fires at every index ``i`` with
        ``i % budget_stride == budget_stride - 1`` (and at every
        individually replayed probe in the fallback paths) while the
        clock holds exactly the value the per-probe loop would show
        there — censored (budget-aborted) runs therefore abort at the
        same probe with the same clock in both modes, with identical
        disk statistics at the abort point.
        """
        keys = np.ascontiguousarray(np.asarray(keys), dtype=np.int64)
        n = int(keys.size)
        flat = self.flat
        lo = np.searchsorted(flat.keys, keys, side="left")
        hi = np.searchsorted(flat.keys, keys, side="right")
        counts = np.asarray(hi - lo, dtype=np.int64)
        if not charge or n == 0:
            return counts
        descent = self._descent_index()
        if not descent.ordered:
            for done, key in enumerate(keys.tolist()):
                self.probe(int(key))
                if budget_check is not None:
                    budget_check(done)
            return counts

        n_entries = flat.n_entries
        n_leaves = flat.n_leaves
        # Leaf the descent lands on: searchsorted over the in-order
        # separators composes the per-level bisect_left choices.
        first_leaf = np.searchsorted(descent.boundaries, keys, side="left")
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
        descent_len = int(descent.leaf_paths.shape[1]) + 1
        descent_pages = np.concatenate(
            [
                descent.leaf_paths[first_leaf],
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

        env = self._env
        pool = env.pool
        probe_cpu = env.profile.btree_probe_cpu
        planned = pool.plan_many(self.handle, all_pages)
        if planned is not None:
            self._charge_probes_planned(
                planned, all_pages, offsets, descent_len, n,
                budget_check, budget_stride,
            )
            return counts
        # Pinned pages: the kernel's inclusion-property argument fails,
        # so replay probes against the live pool until the batch becomes
        # all-resident.
        unique_pages = np.unique(all_pages)
        # With more distinct pages than pool frames the batch can never
        # become all-resident; skip the (futile) residency checks.
        may_batch = int(unique_pages.size) <= pool.capacity_pages
        batched_from = n
        recheck = True
        for i in range(n):
            if may_batch and recheck and pool.contains_all(self.handle, unique_pages):
                batched_from = i
                break
            recheck = False
            start = int(offsets[i])
            end = int(offsets[i + 1])
            misses_before = pool.stats.misses
            for page in all_pages[start : start + descent_len].tolist():
                pool.get(self.handle, page)
            env.charge_cpu(1, probe_cpu)
            for page in all_pages[start + descent_len : end].tolist():
                pool.get(self.handle, page)
            if pool.stats.misses != misses_before:
                recheck = True  # residency changed; worth re-examining
            if budget_check is not None:
                budget_check(i)
        if batched_from < n:
            pool.touch_hits(self.handle, all_pages[int(offsets[batched_from]) :])
            clock = env.clock
            unit = 1 * probe_cpu  # identical rounding to charge_cpu(1, ...)
            if budget_check is not None and budget_stride:
                # Advance in chunks ending at each stride boundary so the
                # boundary checks observe the exact sequential clock
                # (chunked accumulation re-seeds with the running value,
                # so it equals the one-shot accumulation bitwise).
                stride = int(budget_stride)
                pos = batched_from
                boundary = batched_from + (stride - 1 - batched_from % stride) % stride
                while boundary < n:
                    clock.advance_many(
                        np.full(boundary - pos + 1, unit, dtype=np.float64)
                    )
                    budget_check(boundary)
                    pos = boundary + 1
                    boundary += stride
                if pos < n:
                    clock.advance_many(np.full(n - pos, unit, dtype=np.float64))
            else:
                clock.advance_many(
                    np.full(n - batched_from, unit, dtype=np.float64)
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
        unobservable — and the pre-existing batched replay path already
        commits hits upfront).
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
        # one per page access plus one for its CPU charge, inserted after
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

    def probe(self, key: int, charge: bool = True) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Return (keys, payload) of entries equal to ``key`` (may be empty).

        Walks the real node structure; charges one pool access per node
        plus probe CPU when ``charge`` is set.  Duplicate keys spanning a
        leaf boundary are followed through the leaf chain.
        """
        path = self._descend(key)
        leaf = self._leaf_for(path)
        if charge:
            self._charge_descent(path, leaf)
        key_parts: list[np.ndarray] = []
        payload_parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self._payload_names
        }
        current: _Leaf | None = leaf
        first_leaf_visit = True
        while current is not None:
            if charge and not first_leaf_visit:
                self._env.pool.get(self.handle, current.page_no)
            first_leaf_visit = False
            lo = int(np.searchsorted(current.keys, key, side="left"))
            hi = int(np.searchsorted(current.keys, key, side="right"))
            if hi > lo:
                key_parts.append(current.keys[lo:hi])
                for name in self._payload_names:
                    payload_parts[name].append(current.payload[name][lo:hi])
            if hi < current.n_entries:
                break  # saw a key beyond the target; no more duplicates
            current = current.next_leaf
        keys = (
            np.concatenate(key_parts) if key_parts else np.empty(0, dtype=np.int64)
        )
        payload = {
            name: (np.concatenate(parts) if parts else np.empty(0))
            for name, parts in payload_parts.items()
        }
        return keys, payload

    def next_key_after(self, key: int, charge: bool = True) -> int | None:
        """Smallest stored key strictly greater than ``key`` (MDAM probe)."""
        flat = self.flat
        pos = int(np.searchsorted(flat.keys, key, side="right"))
        if charge:
            path = self._descend(key)
            self._charge_descent(path, self._leaf_for(path))
        if pos >= flat.n_entries:
            return None
        return int(flat.keys[pos])

    def insert(self, key: int, payload_row: Mapping[str, object], charge: bool = True) -> None:
        """Insert one entry, splitting nodes as needed."""
        if self._n_entries == 0 and not self._payload_names:
            self._payload_names = tuple(payload_row)
        if set(payload_row) != set(self._payload_names):
            raise StorageError(
                f"payload columns {sorted(payload_row)} != schema "
                f"{sorted(self._payload_names)}"
            )
        path = self._descend(key, for_insert=True)
        leaf = self._leaf_for(path)
        if charge:
            self._charge_descent(path, leaf)
        pos = int(np.searchsorted(leaf.keys, key, side="right"))
        leaf.keys = np.insert(leaf.keys, pos, key)
        for name in self._payload_names:
            existing = leaf.payload.get(name)
            if existing is None or existing.size == 0:
                existing = np.empty(0, dtype=np.asarray([payload_row[name]]).dtype)
            leaf.payload[name] = np.insert(existing, pos, payload_row[name])
        self._n_entries += 1
        self._flat = None
        if leaf.n_entries > self.leaf_capacity:
            self._split_leaf(leaf, path)

    def _split_leaf(self, leaf: _Leaf, path: list[tuple[_Inner, int]]) -> None:
        mid = leaf.n_entries // 2
        right = _Leaf(
            leaf.keys[mid:].copy(),
            {name: values[mid:].copy() for name, values in leaf.payload.items()},
            self._allocate_page(),
        )
        leaf.keys = leaf.keys[:mid].copy()
        leaf.payload = {name: values[:mid].copy() for name, values in leaf.payload.items()}
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        self._insert_into_parent(leaf, int(right.keys[0]), right, path)

    def _insert_into_parent(
        self,
        left: "_Leaf | _Inner",
        separator: int,
        right: "_Leaf | _Inner",
        path: list[tuple[_Inner, int]],
    ) -> None:
        if not path:
            new_root = _Inner([separator], [left, right], self._allocate_page())
            self._root = new_root
            return
        parent, child_idx = path[-1]
        parent.separators.insert(child_idx, separator)
        parent.children.insert(child_idx + 1, right)
        if len(parent.children) > self.inner_fanout:
            self._split_inner(parent, path[:-1])

    def _split_inner(self, inner: _Inner, path: list[tuple[_Inner, int]]) -> None:
        separators = inner.separators
        mid = len(separators) // 2
        promoted = separators[mid]
        right = _Inner(
            separators[mid + 1 :],
            inner.children[mid + 1 :],
            self._allocate_page(),
        )
        inner.separators = separators[:mid]
        inner.children = inner.children[: mid + 1]
        self._insert_into_parent(inner, promoted, right, path)

    def delete(self, key: int, charge: bool = True) -> bool:
        """Delete the first entry equal to ``key``; True if one existed.

        Uses the free-at-empty policy: a leaf is unlinked from its parent
        only when it becomes completely empty.
        """
        path = self._descend(key)
        leaf = self._leaf_for(path)
        if charge:
            self._charge_descent(path, leaf)
        # With duplicates the first occurrence may be one leaf to the right.
        pos = int(np.searchsorted(leaf.keys, key, side="left"))
        while pos == leaf.n_entries:
            if leaf.next_leaf is None:
                return False
            leaf = leaf.next_leaf
            if charge:
                self._env.pool.get(self.handle, leaf.page_no)
            pos = int(np.searchsorted(leaf.keys, key, side="left"))
        if pos >= leaf.n_entries or leaf.keys[pos] != key:
            return False
        leaf.keys = np.delete(leaf.keys, pos)
        leaf.payload = {
            name: np.delete(values, pos) for name, values in leaf.payload.items()
        }
        self._n_entries -= 1
        self._flat = None
        if leaf.n_entries == 0:
            self._free_empty_leaf(leaf)
        return True

    def _free_empty_leaf(self, leaf: _Leaf) -> None:
        if leaf is self._first_leaf and leaf.next_leaf is None:
            return  # a tree keeps at least one (possibly empty) leaf
        prev = self._previous_leaf(leaf)
        if prev is not None:
            prev.next_leaf = leaf.next_leaf
        else:
            self._first_leaf = leaf.next_leaf  # type: ignore[assignment]
        self._unlink_child(self._root, leaf)
        self._collapse_root()

    def _previous_leaf(self, target: _Leaf) -> _Leaf | None:
        leaf: _Leaf | None = self._first_leaf
        if leaf is target:
            return None
        while leaf is not None and leaf.next_leaf is not target:
            leaf = leaf.next_leaf
        return leaf

    def _unlink_child(self, node: "_Leaf | _Inner", target: _Leaf) -> bool:
        if not isinstance(node, _Inner):
            return False
        for index, child in enumerate(node.children):
            if child is target:
                node.children.pop(index)
                if node.separators:
                    node.separators.pop(max(0, index - 1))
                return True
            if isinstance(child, _Inner) and self._unlink_child(child, target):
                if not child.children:
                    node.children.pop(index)
                    if node.separators:
                        node.separators.pop(max(0, index - 1))
                return True
        return False

    def _collapse_root(self) -> None:
        while isinstance(self._root, _Inner) and len(self._root.children) == 1:
            self._root = self._root.children[0]

    # ------------------------------------------------------------------
    # bulk reads (flat view, streamed I/O)
    # ------------------------------------------------------------------

    def span_for_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Flat positions [start, end) of keys in the inclusive [lo, hi]."""
        flat = self.flat
        start = int(np.searchsorted(flat.keys, lo, side="left"))
        end = int(np.searchsorted(flat.keys, hi, side="right"))
        return start, end

    def read_range(
        self, lo: int, hi: int, charge: bool = True
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Read all entries with key in the inclusive range [lo, hi].

        Charges one descent (to locate the range) plus streamed reads of
        every leaf page the range covers.  Returns NumPy views — callers
        must not mutate them.
        """
        start, end = self.span_for_range(lo, hi)
        if charge:
            path = self._descend(lo)
            self._charge_descent(path, None)
            pages = self.flat.pages_for_span(start, end)
            if pages.size:
                self._env.disk.read_scattered(self.handle, pages)
        flat = self.flat
        keys = flat.keys[start:end]
        payload = {name: values[start:end] for name, values in flat.payload.items()}
        return keys, payload

    def scan_all(self, charge: bool = True) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Full leaf scan in key order (sequential after bulk load)."""
        flat = self.flat
        if charge and flat.n_entries:
            self._env.disk.read_scattered(self.handle, flat.unique_leaf_pages())
        return flat.keys, dict(flat.payload)

    def iter_leaves(self) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray]]]:
        """Walk the physical leaf chain (no charging; for tests/tools)."""
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            yield leaf.keys, leaf.payload
            leaf = leaf.next_leaf

    # ------------------------------------------------------------------
    # integrity checking
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises StorageError on violation.

        Checked invariants: keys ascending within each leaf and across the
        leaf chain; every leaf reachable from the root exactly once and in
        chain order; separator keys bound their subtrees; uniform leaf
        depth; entry count consistency.
        """
        reachable: list[_Leaf] = []
        leaf_depths: set[int] = set()
        self._collect_leaves(self._root, reachable, depth=0, depths=leaf_depths)
        if len(leaf_depths) > 1:
            raise StorageError(f"leaves at multiple depths: {sorted(leaf_depths)}")
        chain: list[_Leaf] = []
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            chain.append(leaf)
            leaf = leaf.next_leaf
        if [id(leaf) for leaf in reachable] != [id(leaf) for leaf in chain]:
            raise StorageError("leaf chain does not match root-reachable leaves")
        previous_max: int | None = None
        total = 0
        for leaf in chain:
            if leaf.n_entries:
                keys = leaf.keys
                if np.any(np.diff(keys) < 0):
                    raise StorageError("keys not ascending within a leaf")
                if previous_max is not None and keys[0] < previous_max:
                    raise StorageError("keys not ascending across leaves")
                previous_max = int(keys[-1])
            total += leaf.n_entries
            for name, values in leaf.payload.items():
                if len(values) != leaf.n_entries:
                    raise StorageError(f"payload {name!r} misaligned in leaf")
        if total != self._n_entries:
            raise StorageError(
                f"entry count mismatch: counted {total}, tracked {self._n_entries}"
            )
        self._validate_separators(self._root, None, None)

    def _collect_leaves(self, node, out: list, depth: int, depths: set[int]) -> None:
        if isinstance(node, _Inner):
            if len(node.separators) != len(node.children) - 1:
                raise StorageError(
                    f"inner node has {len(node.separators)} separators for "
                    f"{len(node.children)} children"
                )
            for child in node.children:
                self._collect_leaves(child, out, depth + 1, depths)
        else:
            depths.add(depth)
            out.append(node)

    def _validate_separators(self, node, lo: int | None, hi: int | None) -> None:
        if isinstance(node, _Inner):
            separators = node.separators
            if any(b < a for a, b in zip(separators, separators[1:])):
                raise StorageError("separators not ascending")
            bounds = [lo, *separators, hi]
            for child, (child_lo, child_hi) in zip(
                node.children, zip(bounds[:-1], bounds[1:])
            ):
                self._validate_separators(child, child_lo, child_hi)
        else:
            if node.n_entries == 0:
                return
            if lo is not None and node.keys[0] < lo:
                raise StorageError("leaf key below its subtree lower bound")
            if hi is not None and node.keys[-1] > hi:
                raise StorageError("leaf key above its subtree upper bound")
