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
from typing import Callable

import numpy as np

from repro.errors import BufferPoolError
from repro.sim.disk import Disk, FileHandle
from repro.storage.lru_kernel import LruSimulation, simulate_lru


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
    #: The planned trace (page numbers, as passed to ``plan_many``).
    trace: np.ndarray
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
        resident_codes = np.empty(len(self._resident), dtype=np.int64)
        other_keys: list[tuple[int, int]] = []
        for index, (file_id, page) in enumerate(self._resident):
            if file_id == fid:
                resident_codes[index] = page
            else:
                resident_codes[index] = -1 - len(other_keys)
                other_keys.append((file_id, page))
        simulation = simulate_lru(pages, resident_codes, self._capacity)
        miss_positions = np.nonzero(~simulation.hit_mask)[0]
        return PlannedAccesses(simulation, fid, pages, miss_positions, other_keys)

    def charge_planned_reads_strided(
        self,
        handle: FileHandle,
        planned: PlannedAccesses,
        stride: int,
        checkpoint: Callable[[], None],
    ) -> None:
        """Charge all miss reads, calling ``checkpoint`` every ``stride``.

        Equivalent to the :meth:`get` loop over consecutive
        ``stride``-sized trace slices with ``checkpoint()`` after each —
        the naive fetch's budget-check schedule — but the whole miss
        chain is costed by one :meth:`Disk.plan_page_reads` pass.
        Bitwise identity holds slice by slice: hits move neither the
        clock nor the head, chunked :meth:`SimClock.advance_many`
        re-seeds with the running clock (accumulating exactly as one
        sequential chain), and :meth:`Disk.commit_page_reads` replays
        the loop's statistics accumulation.  A ``checkpoint`` that
        raises (budget exhaustion) leaves the clock and disk statistics
        exactly where the sliced loop's abort would.
        """
        n = int(planned.trace.size)
        miss = planned.miss_positions
        reads = self._disk.plan_page_reads(handle, planned.trace[miss])
        clock = self._disk.clock
        slice_ends = np.minimum(np.arange(stride, n + stride, stride), n)
        lo = 0
        for hi in np.searchsorted(miss, slice_ends).tolist():
            if hi > lo:
                clock.advance_many(reads.elapsed[lo:hi])
                self._disk.commit_page_reads(handle, reads, lo, hi)
                lo = hi
            checkpoint()

    def commit_many(self, planned: PlannedAccesses) -> None:
        """Apply a planned trace's stats and final LRU state to the pool."""
        simulation = planned.simulation
        self.stats.hits += simulation.n_hits
        self.stats.misses += simulation.n_misses
        self.stats.evictions += simulation.n_evictions
        fid = planned.file_id
        other_keys = planned.other_keys
        resident: OrderedDict[tuple[int, int], None] = OrderedDict()
        for code in simulation.final_keys.tolist():
            if code >= 0:
                resident[(fid, code)] = None
            else:
                resident[other_keys[-1 - code]] = None
        self._resident = resident

    def _admit(self, key: tuple[int, int]) -> None:
        while len(self._resident) >= self._capacity:
            self._resident.popitem(last=False)
            self.stats.evictions += 1
        self._resident[key] = None

    def clear(self) -> None:
        """Drop every cached page (cold-cache reset between measurements)."""
        self._resident.clear()

