"""LRU buffer pool.

Point accesses (B-tree descents, per-row fetches of the *traditional*
index scan) go through the pool: hits are free, misses charge a disk read
and may evict the least-recently-used page.  Bulk sweeps (table
scans, leaf-range scans, bitmap fetches) deliberately bypass the pool and
stream from disk, mirroring the scan-resistant ring buffers real engines
use; keeping the pool for point accesses is what makes repeated fetches of
a hot page cheap and cold random fetches expensive.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BufferPoolError
from repro.sim.disk import Disk, FileHandle
from repro.storage.lru_kernel import LruSimulation, simulate_lru

#: Strides :meth:`BufferPool.get_strided` plans and charges in its first
#: window; every later window doubles the trace covered so far.  Small
#: enough that a run censored early simulates a few thousand accesses,
#: not its whole trace; large enough that an uncensored trace takes a
#: handful of kernel calls.
_FIRST_WINDOW_STRIDES = 16


@dataclass
class PoolStats:
    """Hit/miss counters for one :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass
class PlannedAccesses:
    """A resolved access trace awaiting its charges and state commit.

    Produced by :meth:`BufferPool.plan_many`: the per-access hit
    classification plus everything needed to later apply the trace's
    pool-side effects in one step (:meth:`BufferPool.commit_many`).
    Splitting plan from commit lets callers interleave the miss charges
    with their own CPU charges (see :meth:`BPlusTree.probe_many`) while
    the pool state lands exactly once.
    """

    simulation: LruSimulation
    file_id: int
    #: Trace positions that miss, ascending.
    miss_positions: np.ndarray
    #: Decode table for negative key codes: code ``-1 - k`` is
    #: ``other_keys[k]``, a resident ``(file_id, page_no)`` of some other
    #: file.
    other_keys: list[tuple[int, int]] = field(default_factory=list)


class BufferPool:
    """Exact-LRU page cache over the shared simulated disk."""

    def __init__(self, disk: Disk, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise BufferPoolError(f"capacity must be positive, got {capacity_pages}")
        self._disk = disk
        self._capacity = capacity_pages
        self._resident: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.stats = PoolStats()

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    def get(self, handle: FileHandle, page_no: int) -> None:
        """Access one page: free on hit, charges a disk read on miss."""
        key = (handle.file_id, page_no)
        if key in self._resident:
            self._resident.move_to_end(key)
            self.stats.hits += 1
            return
        self.stats.misses += 1
        self._disk.read_page(handle, page_no)
        self._admit(key)

    def plan_many(self, handle: FileHandle, page_nos) -> PlannedAccesses | None:
        """Resolve a page-access trace through the vectorized LRU kernel.

        Returns the planned trace — per-access hit flags plus the final
        pool state — without charging anything or mutating the pool, or
        ``None`` when the kernel's precondition fails and callers must
        charge the trace through the plain :meth:`get` loop instead:
        all page numbers must be non-negative (negative codes are
        reserved for other files' residents; the scalar loop raises on
        them mid-trace, which the kernel cannot reproduce).

        The caller charges one disk read per miss, in trace order, then
        applies the pool-side effects with :meth:`commit_many`.
        """
        pages = np.ascontiguousarray(np.asarray(page_nos), dtype=np.int64)
        if pages.size and bool(pages.min() < 0):
            return None
        fid = handle.file_id
        resident_codes, other_keys = self._resident_codes(fid)
        simulation = simulate_lru(pages, resident_codes, self._capacity)
        miss_positions = np.nonzero(~simulation.hit_mask)[0]
        return PlannedAccesses(simulation, fid, miss_positions, other_keys)

    def get_strided(self, handle: FileHandle, page_nos, stride: int, budget) -> bool:
        """Access a page trace, checking ``budget`` every ``stride`` pages.

        Equivalent to the :meth:`get` loop over consecutive
        ``stride``-sized trace slices with ``budget.check_budget()``
        after each — the naive fetch's budget-check schedule — but
        planned and charged one *window* of whole strides at a time.
        ``budget`` is duck-typed (``over_budget`` and ``check_budget``,
        as :class:`~repro.executor.context.ExecContext` has them;
        ``None`` never fails).  The
        first window is :data:`_FIRST_WINDOW_STRIDES` strides; each
        later one doubles the trace covered so far, so a budget that
        fails after access ``a`` has simulated at most
        ``max(first window, 2 * a)`` accesses instead of the whole trace.

        Per window: :func:`simulate_lru` classifies the window against
        the residents the previous window left (the first window
        against the pool's own), :meth:`Disk.plan_page_reads` costs its
        misses from the head the previous window left, and
        :meth:`SimClock.advance_checked` charges the misses — a hit
        charges exactly ``0.0`` — up to the first slice boundary whose
        clock fails the budget.  The reads up to that boundary are
        committed (:meth:`Disk.commit_page_reads`) and
        ``budget.check_budget()`` raises.  Bitwise identity with the
        loop holds at every boundary: LRU state carried between windows
        makes the split exact (evictions add up), hits move neither the
        clock nor the head, and the schedule and the statistics
        accumulate left to right, seeded with the running values.  Pool
        statistics and the resident order land once, after the last
        window, so a budget that fails leaves the pool untouched and
        the clock and disk statistics exactly where the sliced loop's
        abort would.

        Returns ``False``, having charged nothing, when the trace holds a
        negative page number (the kernel's precondition, see
        :meth:`plan_many`).
        """
        pages = np.ascontiguousarray(np.asarray(page_nos), dtype=np.int64)
        if pages.size and bool(pages.min() < 0):
            return False
        fid = handle.file_id
        state, other_keys = self._resident_codes(fid)
        disk = self._disk
        n = int(pages.size)
        hits = misses = evictions = 0
        start, end = 0, min(n, stride * _FIRST_WINDOW_STRIDES)
        while start < n:
            window = pages[start:end]
            simulation = simulate_lru(window, state, self._capacity)
            miss = np.nonzero(~simulation.hit_mask)[0]
            reads = disk.plan_page_reads(handle, window[miss])
            schedule = np.empty(1 + miss.size, dtype=np.float64)
            schedule[1:] = reads.elapsed
            # Misses charged by each slice boundary of the window.
            size = end - start
            checks = np.searchsorted(
                miss, np.minimum(np.arange(stride, size + stride, stride), size)
            )
            failed = disk.clock.advance_checked(schedule, checks, budget)
            aborted = failed < checks.size
            read_stop = int(checks[failed]) if aborted else int(miss.size)
            disk.commit_page_reads(handle, reads, 0, read_stop)
            if aborted:
                budget.check_budget()  # raises: over_budget is its twin
            hits += simulation.n_hits
            misses += simulation.n_misses
            evictions += simulation.n_evictions
            state = simulation.final_keys
            start, end = end, min(n, 2 * end)
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self._resident = self._decode_resident(state, fid, other_keys)
        return True

    def commit_many(self, planned: PlannedAccesses) -> None:
        """Apply a planned trace's stats and final LRU state to the pool."""
        simulation = planned.simulation
        self.stats.hits += simulation.n_hits
        self.stats.misses += simulation.n_misses
        self.stats.evictions += simulation.n_evictions
        self._resident = self._decode_resident(
            simulation.final_keys, planned.file_id, planned.other_keys
        )

    def _resident_codes(
        self, fid: int
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The residents as kernel key codes, LRU-oldest first.

        Pages of file ``fid`` are their own page numbers; every other
        file's page is a negative code ``-1 - k`` for ``other_keys[k]``.
        """
        resident_codes = np.empty(len(self._resident), dtype=np.int64)
        other_keys: list[tuple[int, int]] = []
        for index, (file_id, page) in enumerate(self._resident):
            if file_id == fid:
                resident_codes[index] = page
            else:
                resident_codes[index] = -1 - len(other_keys)
                other_keys.append((file_id, page))
        return resident_codes, other_keys

    @staticmethod
    def _decode_resident(
        codes: np.ndarray, fid: int, other_keys: list[tuple[int, int]]
    ) -> OrderedDict[tuple[int, int], None]:
        """Inverse of :meth:`_resident_codes`: kernel codes to pool keys."""
        resident: OrderedDict[tuple[int, int], None] = OrderedDict()
        for code in codes.tolist():
            if code >= 0:
                resident[(fid, code)] = None
            else:
                resident[other_keys[-1 - code]] = None
        return resident

    def _admit(self, key: tuple[int, int]) -> None:
        while len(self._resident) >= self._capacity:
            self._resident.popitem(last=False)
            self.stats.evictions += 1
        self._resident[key] = None

    def clear(self) -> None:
        """Drop every cached page (cold-cache reset between measurements)."""
        self._resident.clear()

