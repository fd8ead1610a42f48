"""LRU buffer pool.

Point accesses (B-tree descents, per-row fetches of the *traditional*
index scan) go through the pool: hits are free, misses charge a disk read
and may evict the least-recently-used page.  Bulk sweeps (table
scans, leaf-range scans, bitmap fetches) deliberately bypass the pool and
stream from disk, mirroring the scan-resistant ring buffers real engines
use; keeping the pool for point accesses is what makes repeated fetches of
a hot page cheap and cold random fetches expensive.

A batch of point accesses is charged in one step, bitwise as its
:meth:`BufferPool.get` loop.  One rule, :meth:`BufferPool.fits`, decides
whether a batch can evict.  A batch that cannot is charged by
:meth:`BufferPool.charge_touches` from its pages' first and last touches
alone, whether :meth:`~repro.storage.btree.BPlusTree.probe_many` finds
them from its probes or :meth:`BufferPool.charge_trace` from a page
trace.  Every other trace is simulated window by window by the LRU
kernel (:mod:`repro.storage.lru_kernel`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import BufferPoolError
from repro.sim.disk import Disk, FileHandle
from repro.storage.lru_kernel import simulate_lru

#: Budget checks :meth:`BufferPool.charge_trace` plans and charges in its
#: first window; every later window doubles the trace covered so far.
#: Small enough that a run censored early simulates a few thousand
#: accesses, not its whole trace; large enough that an uncensored trace
#: takes a handful of kernel calls.
_FIRST_WINDOW_CHECKS = 16


@dataclass
class PoolStats:
    """Hit/miss counters for one :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


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

    def charge_trace(
        self,
        handle: FileHandle,
        pages,
        budget,
        checks,
        cpu_after=(),
        cpu_unit: float = 0.0,
    ) -> None:
        """Access a page trace with CPU units and budget checks in it.

        Bitwise the loop that, at each trace position ``p`` from ``0``
        to ``len(pages)``, charges ``cpu_unit`` once per entry of
        ``cpu_after`` equal to ``p``, checks ``budget`` if ``p`` is in
        ``checks``, then calls :meth:`get` for ``pages[p]`` (if any).
        ``checks`` and ``cpu_after`` are ascending positions;
        ``budget`` is duck-typed (``over_budget`` and ``check_budget``,
        as :class:`~repro.executor.context.ExecContext` has them;
        ``None`` never fails).

        A trace for which :meth:`fits` holds (an empty one always does)
        cannot evict: one stable sort of the pages' offsets from the lowest, in
        the narrowest unsigned type (a radix sort for a pool-sized span),
        finds each page's first and last access, and
        :meth:`charge_touches` charges it from them.  Any other trace is
        charged one *window* at a time: the first ends at check
        :data:`_FIRST_WINDOW_CHECKS` (fewer checks: one window), each
        later one doubles the trace covered so far, so a budget that
        fails after access ``a`` has simulated at most ``max(first
        window, 2 * a)`` accesses.  Per window, :func:`simulate_lru`
        classifies it against the residents the previous window left,
        and :meth:`_charge_misses` charges its misses, CPU units and
        checks, raising at the first check that fails.  Carried LRU
        state makes the split exact, and clock and statistics accumulate
        left to right from the running values.  Pool statistics and the
        resident order land once, after the last window, so an abort
        leaves the pool untouched.  A negative page number raises
        :class:`BufferPoolError` before anything is charged.
        """
        pages = np.ascontiguousarray(np.asarray(pages), dtype=np.int64)
        n = int(pages.size)
        low, high = (int(pages.min()), int(pages.max())) if n else (0, -1)
        if low < 0:
            raise BufferPoolError(f"negative page number in a trace of {handle}")
        checks = np.asarray(checks, dtype=np.int64)
        cpu_after = np.asarray(cpu_after, dtype=np.int64)
        if self.fits(handle, low, high, n):
            order = np.argsort(
                (pages - low).astype(np.min_scalar_type(high - low)), kind="stable"
            )
            by_page = pages[order]
            first = np.ones(n, dtype=bool)
            np.not_equal(by_page[1:], by_page[:-1], out=first[1:])
            last = np.ones(n, dtype=bool)
            last[:-1] = first[1:]
            self.charge_touches(
                handle,
                by_page[first],
                order[first],
                order[last],
                n,
                budget,
                checks,
                cpu_after,
                cpu_unit,
            )
            return
        fid = handle.file_id
        state, other_keys = self._resident_codes(fid)
        hits = misses = evictions = 0
        start = checked = landed = 0
        end = n
        if checks.size > _FIRST_WINDOW_CHECKS:
            end = max(1, int(checks[_FIRST_WINDOW_CHECKS - 1]))
        while True:
            window = pages[start:end]
            simulation = simulate_lru(window, state, self._capacity)
            miss = np.nonzero(~simulation.hit_mask)[0]
            # The window's CPU units and checks: those at its end count,
            # those at its start were the previous window's.
            unit_stop = int(np.searchsorted(cpu_after, end, "right"))
            check_stop = int(np.searchsorted(checks, end, "right"))
            self._charge_misses(
                handle,
                window[miss],
                miss + start,
                cpu_after[landed:unit_stop],
                checks[checked:check_stop],
                cpu_unit,
                budget,
            )
            hits += simulation.n_hits
            misses += simulation.n_misses
            evictions += simulation.n_evictions
            state = simulation.final_keys
            if end >= n:
                break
            start, end = end, min(n, 2 * end)
            landed, checked = unit_stop, check_stop
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self._resident = self._decode_resident(state, fid, other_keys)

    def fits(self, handle: FileHandle, low: int, high: int, n_accesses: int) -> bool:
        """Whether a batch of ``n_accesses`` accesses to pages ``low`` to
        ``high`` of ``handle`` cannot evict.

        The pool never holds a page that is neither resident nor
        accessed, so it holds at most ``n_accesses`` plus the residents,
        and at most the span's ``high - low + 1`` pages plus the
        residents outside it.  Either bound within ``capacity_pages``
        means no access evicts.
        """
        resident = self._resident
        if n_accesses + len(resident) <= self._capacity:
            return True
        fid = handle.file_id
        inside = sum(
            1 for file_id, page in resident if file_id == fid and low <= page <= high
        )
        return high - low + 1 + len(resident) - inside <= self._capacity

    def charge_touches(
        self,
        handle: FileHandle,
        pages: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
        n_accesses: int,
        budget,
        checks,
        cpu_after,
        cpu_unit: float,
    ) -> None:
        """:meth:`charge_trace` of a trace that cannot evict (see
        :meth:`fits`), given only each page's first and last access.

        The trace is ``n_accesses`` accesses to ``handle``; its distinct
        pages are ``pages``, page ``pages[i]`` accessed first at trace
        position ``first[i]`` and last at ``last[i]``.  ``budget``,
        ``checks``, ``cpu_after`` and ``cpu_unit`` are
        :meth:`charge_trace`'s.  When the pages and the residents fit the
        pool together, nothing is evicted, so an access misses exactly
        at its page's first touch if the page is not resident, every
        other access hits, and the residents end in their old order,
        the untouched first, then the touched ones by last touch.  The
        misses are charged in one :meth:`_charge_misses` call: clock,
        disk statistics, budget checks and an abort's untouched pool are
        bitwise those of :meth:`charge_trace` on the whole trace.  Pages
        that, with the residents, overflow the pool raise
        :class:`BufferPoolError` before anything is charged.
        """
        fid = handle.file_id
        resident = self._resident
        keys = [(fid, page) for page in pages.tolist()]
        held = np.fromiter((key in resident for key in keys), bool, len(keys))
        if len(resident) + len(keys) - int(held.sum()) > self._capacity:
            raise BufferPoolError(
                f"{len(keys)} pages of {handle} overflow a pool of "
                f"{self._capacity} frames holding {len(resident)}"
            )
        by_first = np.argsort(first)
        missed = by_first[~held[by_first]]
        self._charge_misses(
            handle,
            pages[missed],
            first[missed],
            np.asarray(cpu_after, dtype=np.int64),
            np.asarray(checks, dtype=np.int64),
            cpu_unit,
            budget,
        )
        self.stats.hits += n_accesses - int(missed.size)
        self.stats.misses += int(missed.size)
        for index in np.argsort(last).tolist():
            resident[keys[index]] = None
            resident.move_to_end(keys[index])

    def _charge_misses(
        self,
        handle: FileHandle,
        pages: np.ndarray,
        at: np.ndarray,
        units: np.ndarray,
        checks: np.ndarray,
        cpu_unit: float,
        budget,
    ) -> None:
        """Charge a stretch of a trace: its misses, CPU units and checks.

        Page ``pages[k]`` missed at trace position ``at[k]``; ``units``
        are the stretch's ``cpu_after`` positions and ``checks`` its
        check positions, all ascending.  :meth:`Disk.plan_runs` costs
        the misses, as reads of one page, from the head the last stretch
        left, and
        :meth:`SimClock.advance_checked` charges misses and CPU units in
        loop order (a hit charges exactly ``0.0``) up to the first check
        whose clock fails the budget; the reads before it are committed
        and ``budget.check_budget()`` raises.
        """
        disk = self._disk
        reads = disk.plan_runs(
            np.full(pages.size, handle.file_id), pages, np.ones(pages.size, np.int64)
        )
        # A miss lands after the units at or before its own position, a
        # unit after the misses before its position: every other slot
        # of the schedule is a unit.
        schedule = np.full(1 + units.size + at.size, cpu_unit, dtype=np.float64)
        schedule[1 + np.arange(at.size) + np.searchsorted(units, at, "right")] = (
            reads.elapsed
        )
        misses_done = np.searchsorted(at, checks)
        failed = disk.clock.advance_checked(
            schedule, misses_done + np.searchsorted(units, checks, "right"), budget
        )
        aborted = failed < checks.size
        read_stop = int(misses_done[failed]) if aborted else int(at.size)
        disk.commit_runs(reads, 0, read_stop)
        if aborted:
            budget.check_budget()  # raises: over_budget is its twin

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

