"""Simulated disk with an explicit random/sequential cost model.

The disk is deliberately simple but mechanically honest: it tracks the last
page accessed and charges

* a full **seek** (:attr:`DeviceProfile.seek_time`) when an access jumps to
  an unrelated location (different file, or backwards/far-away page),
* a short **settle** (:attr:`DeviceProfile.settle_time`) when an access
  moves forward within the same file by a bounded gap — the "sweep the file
  in sorted order" pattern of bitmap-driven fetches, and
* pure **transfer** time for strictly consecutive pages.

These three cases are exactly the mechanics that differentiate the paper's
table scan, traditional index scan, and improved index scan (Fig 1), and
the bitmap-sorted fetch of System B (Fig 8).

A chain of reads has one planner: :meth:`Disk.plan_runs` classifies every
read by where the previous one leaves the head, the caller advances the
clock over the plan (alone in :meth:`Disk.read_runs`, interleaved with
CPU charges and budget checks in the buffer pool), and
:meth:`Disk.commit_runs` applies the reads up to where it stopped.  The
single-call paths (:meth:`Disk.read_run`, :meth:`Disk.read_scattered`,
:meth:`Disk.write_run`) keep their own scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.sim.clock import SimClock
from repro.sim.profile import DeviceProfile

#: Maximum forward gap (in pages, within one file) that still counts as a
#: short seek rather than a full random repositioning.
SHORT_SEEK_GAP_PAGES = 2048


@dataclass
class DiskStats:
    """Cumulative access statistics for one :class:`Disk`."""

    sequential_reads: int = 0
    settled_reads: int = 0
    random_reads: int = 0
    pages_read: int = 0
    pages_written: int = 0
    seeks: int = 0
    read_time: float = 0.0
    write_time: float = 0.0

    def snapshot(self) -> "DiskStats":
        """Return an independent copy of the current counters."""
        return DiskStats(**vars(self))

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Return counters accumulated since ``earlier`` was snapshot."""
        return DiskStats(
            **{name: getattr(self, name) - getattr(earlier, name) for name in vars(self)}
        )


@dataclass(frozen=True)
class FileHandle:
    """Identity of one on-disk object (table, index, or spill file)."""

    file_id: int
    name: str

    def __str__(self) -> str:
        return f"{self.name}#{self.file_id}"


@dataclass
class _HeadPosition:
    """Where the (single) disk head last finished."""

    file_id: int = -1
    page_no: int = -1

    def after(self, handle: FileHandle, last_page: int) -> None:
        self.file_id = handle.file_id
        self.page_no = last_page


@dataclass
class PlannedRuns:
    """A chain of :meth:`Disk.read_run` calls, costed but not yet charged.

    Produced by :meth:`Disk.plan_runs`.  Callers fold ``elapsed`` into
    their own (possibly interleaved) clock schedule, then apply the
    reads' statistics and head position in order with
    :meth:`Disk.commit_runs`, so CPU charges can land *between* two reads
    while the disk math stays vectorized.
    """

    file_ids: np.ndarray
    #: Pages per read, and the last page each read leaves the head on.
    counts: np.ndarray
    ends: np.ndarray
    elapsed: np.ndarray
    #: Positioning categories; a read that is neither is random.
    sequential: np.ndarray
    settled: np.ndarray


class Disk:
    """Single simulated spindle shared by all storage objects.

    All reads and writes advance the shared :class:`SimClock`; the head
    position is global, so interleaved access to two files (e.g. an index
    and its base table) is charged as random I/O — the physical reason a
    traditional index scan collapses at moderate selectivities.
    """

    def __init__(self, clock: SimClock, profile: DeviceProfile) -> None:
        self._clock = clock
        self._profile = profile
        self._head = _HeadPosition()
        self._next_file_id = 0
        self.stats = DiskStats()

    @property
    def profile(self) -> DeviceProfile:
        return self._profile

    @property
    def clock(self) -> SimClock:
        return self._clock

    def create_file(self, name: str) -> FileHandle:
        """Register a new on-disk object and return its handle."""
        handle = FileHandle(self._next_file_id, name)
        self._next_file_id += 1
        return handle

    def forget_position(self) -> None:
        """Invalidate the head position (e.g. after other system activity)."""
        self._head = _HeadPosition()

    def _positioning_cost(self, handle: FileHandle, page_no: int) -> tuple[float, str]:
        """Seconds (and category) to move the head to ``page_no``."""
        head = self._head
        if head.file_id == handle.file_id and head.page_no == page_no - 1:
            return 0.0, "sequential"
        if (
            head.file_id == handle.file_id
            and head.page_no < page_no
            and page_no - head.page_no <= SHORT_SEEK_GAP_PAGES
        ):
            return self._profile.settle_time, "settled"
        return self._profile.seek_time, "random"

    def read_run(self, handle: FileHandle, start_page: int, n_pages: int) -> float:
        """Read ``n_pages`` consecutive pages starting at ``start_page``.

        Returns the virtual seconds charged.  A run of length 1 is a single
        page read; longer runs amortize one positioning cost over the run,
        which is what makes range prefetch cheap.
        """
        if n_pages <= 0:
            raise StorageError(f"read_run needs a positive page count, got {n_pages}")
        if start_page < 0:
            raise StorageError(f"negative start page {start_page}")
        positioning, category = self._positioning_cost(handle, start_page)
        transfer = n_pages * self._profile.page_transfer_time
        elapsed = positioning + transfer
        self._clock.advance(elapsed)

        stats = self.stats
        stats.pages_read += n_pages
        stats.read_time += elapsed
        if category == "sequential":
            stats.sequential_reads += 1
        elif category == "settled":
            stats.settled_reads += 1
        else:
            stats.random_reads += 1
            stats.seeks += 1
        self._head.after(handle, start_page + n_pages - 1)
        return elapsed

    def read_page(self, handle: FileHandle, page_no: int) -> float:
        """Read one page; convenience wrapper over :meth:`read_run`."""
        return self.read_run(handle, page_no, 1)

    def read_runs(
        self, file_ids: np.ndarray, start_pages: np.ndarray, n_pages: np.ndarray
    ) -> None:
        """Charge a sequence of :meth:`read_run` calls in one step.

        Bit-identical to the equivalent loop: :meth:`plan_runs` costs the
        reads, the clock advances over them left to right
        (:meth:`SimClock.advance_many`), and :meth:`commit_runs` applies
        them to the statistics and the head.
        """
        planned = self.plan_runs(file_ids, start_pages, n_pages)
        self._clock.advance_many(planned.elapsed)
        self.commit_runs(planned, 0, int(planned.elapsed.size))

    def plan_runs(
        self, file_ids: np.ndarray, start_pages: np.ndarray, n_pages: np.ndarray
    ) -> PlannedRuns:
        """Cost a chain of :meth:`read_run` calls without charging it.

        Read ``k`` reads ``n_pages[k]`` pages of file ``file_ids[k]`` from
        ``start_pages[k]`` on.  Its positioning category follows from
        where the *previous* read leaves the head (the first from the
        live head position), and its elapsed time is the same
        ``positioning + n_pages * transfer`` sum the loop computes.
        Nothing is charged and no state moves: the plan is only valid
        while nothing else moves the head.
        """
        f = np.asarray(file_ids, dtype=np.int64)
        s = np.asarray(start_pages, dtype=np.int64)
        c = np.asarray(n_pages, dtype=np.int64)
        if s.size != f.size or c.size != f.size:
            raise StorageError("plan_runs needs aligned file/start/count arrays")
        if np.any(c <= 0):
            raise StorageError("plan_runs needs positive page counts")
        if np.any(s < 0):
            raise StorageError("plan_runs needs non-negative start pages")
        profile = self._profile
        head = self._head
        ends = s + c - 1
        same_file = np.concatenate(([head.file_id], f))[:-1] == f
        prev_end = np.concatenate(([head.page_no], ends))[:-1]
        sequential = same_file & (prev_end == s - 1)
        settled = (
            same_file
            & (prev_end < s)
            & (s - prev_end <= SHORT_SEEK_GAP_PAGES)
            & ~sequential
        )
        positioning = np.where(
            sequential,
            0.0,
            np.where(settled, profile.settle_time, profile.seek_time),
        )
        elapsed = positioning + c * profile.page_transfer_time
        return PlannedRuns(f, c, ends, elapsed, sequential, settled)

    def commit_runs(self, planned: PlannedRuns, start: int, stop: int) -> None:
        """Apply reads ``[start, stop)`` of a plan to stats and the head.

        The clock is *not* advanced: the caller already folded the plan's
        ``elapsed`` into its own schedule.  ``read_time`` replays the
        loop's left-to-right float accumulation, so committing a plan in
        consecutive slices accumulates exactly as committing it whole.
        """
        if stop <= start:
            return
        stats = self.stats
        stats.pages_read += int(planned.counts[start:stop].sum())
        stats.read_time = float(
            np.add.accumulate(
                np.concatenate(((stats.read_time,), planned.elapsed[start:stop]))
            )[-1]
        )
        n_sequential = int(np.count_nonzero(planned.sequential[start:stop]))
        n_settled = int(np.count_nonzero(planned.settled[start:stop]))
        n_random = stop - start - n_sequential - n_settled
        stats.sequential_reads += n_sequential
        stats.settled_reads += n_settled
        stats.random_reads += n_random
        stats.seeks += n_random
        self._head = _HeadPosition(
            int(planned.file_ids[stop - 1]), int(planned.ends[stop - 1])
        )

    def read_scattered(
        self, handle: FileHandle, page_nos, coalesce: bool = False
    ) -> float:
        """Read an ascending array of page numbers in one sorted sweep.

        ``page_nos`` is a NumPy int array, strictly ascending (callers
        deduplicate first).  Consecutive pages cost pure transfer, small
        forward gaps cost a settle, large gaps cost a full seek — the cost
        structure of a bitmap-driven, page-ordered fetch.  Returns the
        virtual seconds charged.

        With ``coalesce=True`` the head *reads through* small gaps whenever
        streaming the unwanted pages is cheaper than repositioning — the
        density-adaptive prefetch that turns a dense fetch into a
        near-sequential partial table scan (the paper's "improved" index
        scan, Fig 1).
        """
        page_nos = np.asarray(page_nos)
        n_pages = int(page_nos.size)
        if n_pages == 0:
            return 0.0
        profile = self._profile
        extra_pages = 0
        if n_pages > 1:
            gaps = np.diff(page_nos)
            if np.any(gaps <= 0):
                raise StorageError("read_scattered requires strictly ascending pages")
            if coalesce:
                # Reading through g-1 unwanted pages beats a settle when
                # (g-1) * transfer <= settle.
                max_gap = 1 + int(profile.settle_time / profile.page_transfer_time)
                read_through = (gaps > 1) & (gaps <= max_gap)
                extra_pages = int((gaps[read_through] - 1).sum())
            else:
                read_through = np.zeros(gaps.shape, dtype=bool)
            settled_mask = (gaps > 1) & (gaps <= SHORT_SEEK_GAP_PAGES) & ~read_through
            n_settled = int(np.count_nonzero(settled_mask))
            n_seeks = int(np.count_nonzero(gaps > SHORT_SEEK_GAP_PAGES))
        else:
            n_settled = 0
            n_seeks = 0
        first_positioning, first_category = self._positioning_cost(handle, int(page_nos[0]))
        elapsed = (
            first_positioning
            + (n_pages + extra_pages) * profile.page_transfer_time
            + n_settled * profile.settle_time
            + n_seeks * profile.seek_time
        )
        self._clock.advance(elapsed)

        stats = self.stats
        stats.pages_read += n_pages + extra_pages
        stats.read_time += elapsed
        stats.settled_reads += n_settled + (1 if first_category == "settled" else 0)
        stats.random_reads += n_seeks + (1 if first_category == "random" else 0)
        stats.seeks += n_seeks + (1 if first_category == "random" else 0)
        stats.sequential_reads += (
            n_pages - n_settled - n_seeks - (0 if first_category == "sequential" else 1)
        )
        self._head.after(handle, int(page_nos[-1]))
        return elapsed

    def write_run(self, handle: FileHandle, start_page: int, n_pages: int) -> float:
        """Write ``n_pages`` consecutive pages (used by spills)."""
        if n_pages <= 0:
            raise StorageError(f"write_run needs a positive page count, got {n_pages}")
        positioning, _category = self._positioning_cost(handle, start_page)
        transfer = n_pages * self._profile.page_transfer_time
        elapsed = positioning + transfer
        self._clock.advance(elapsed)
        self.stats.pages_written += n_pages
        self.stats.write_time += elapsed
        self._head.after(handle, start_page + n_pages - 1)
        return elapsed
