"""Temporary (spill) storage for external sort and hash operators.

A :class:`SpillFile` tracks how many pages a run occupies; writing a run is
sequential, reading it back is sequential per run but requires a seek when
the merge phase alternates between runs — which is why a multiway merge
with many runs is slower than one with few runs, and why the §4 "spill the
entire input" sort exhibits a cost cliff.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import StorageError
from repro.sim.disk import Disk, FileHandle


class SpillFile:
    """One spilled run: a contiguous range of pages in temp space."""

    __slots__ = ("_handle", "_n_pages", "_cursor")

    def __init__(self, handle: FileHandle, n_pages: int) -> None:
        self._handle = handle
        self._n_pages = n_pages
        self._cursor = 0

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def pages_remaining(self) -> int:
        return self._n_pages - self._cursor

    def reset(self) -> None:
        """Rewind the read cursor to the start of the run."""
        self._cursor = 0


class TempStore:
    """Allocates spill files and charges their I/O to the shared disk."""

    def __init__(self, disk: Disk) -> None:
        self._disk = disk
        self._next_spill = 0
        self.pages_spilled = 0

    def _pages_for(self, n_rows: int, row_bytes: int) -> int:
        profile = self._disk.profile
        rows_per_page = max(1, profile.page_size // max(1, row_bytes))
        return max(1, math.ceil(n_rows / rows_per_page))

    def write_run(self, n_rows: int, row_bytes: int) -> SpillFile:
        """Spill ``n_rows`` of ``row_bytes`` each as one sequential run."""
        if n_rows <= 0:
            raise StorageError(f"cannot spill a non-positive row count {n_rows}")
        handle = self._disk.create_file(f"spill{self._next_spill}")
        self._next_spill += 1
        n_pages = self._pages_for(n_rows, row_bytes)
        self._disk.write_run(handle, 0, n_pages)
        self.pages_spilled += n_pages
        return SpillFile(handle, n_pages)

    def read_pages(self, run: SpillFile, n_pages: int) -> int:
        """Read up to ``n_pages`` from the run's cursor; returns pages read.

        Each call positions the head at the run's cursor, so alternating
        reads between runs (a merge) pay a positioning cost per switch.
        """
        available = run.pages_remaining
        if available <= 0:
            return 0
        to_read = min(n_pages, available)
        self._disk.read_run(run._handle, run._cursor, to_read)
        run._cursor += to_read
        return to_read

    def read_run_fully(self, run: SpillFile) -> None:
        """Stream an entire run back from its start."""
        run.reset()
        self.read_pages(run, run.n_pages)

    def merge_read_all(self, runs: list[SpillFile], page_quantum: int) -> None:
        """Round-robin every run to exhaustion in quantum-sized chunks.

        Charges exactly what the merge loop

        .. code-block:: python

            while any(run.pages_remaining for run in runs):
                for run in runs:
                    if run.pages_remaining:
                        temp.read_pages(run, page_quantum)

        would charge — the full schedule (round-major, runs in list
        order, each read positioned at the run's cursor) is computed up
        front and charged through :meth:`Disk.read_runs` in one
        vectorized, bit-identical step.
        """
        quantum = int(page_quantum)
        if quantum <= 0:
            raise StorageError(f"merge quantum must be positive, got {page_quantum}")
        active = [run for run in runs if run.pages_remaining > 0]
        if not active:
            return
        remaining = np.array([run.pages_remaining for run in active], dtype=np.int64)
        cursors = np.array([run._cursor for run in active], dtype=np.int64)
        file_ids = np.array(
            [run._handle.file_id for run in active], dtype=np.int64
        )
        reads_per_run = -(-remaining // quantum)
        run_idx = np.repeat(np.arange(len(active), dtype=np.int64), reads_per_run)
        offsets = np.cumsum(reads_per_run) - reads_per_run
        round_idx = (
            np.arange(int(reads_per_run.sum()), dtype=np.int64)
            - np.repeat(offsets, reads_per_run)
        )
        order = np.lexsort((run_idx, round_idx))  # round-major, run-minor
        starts = cursors[run_idx] + round_idx * quantum
        counts = np.minimum(quantum, remaining[run_idx] - round_idx * quantum)
        self._disk.read_runs(file_ids[run_idx][order], starts[order], counts[order])
        for run in active:
            run._cursor = run.n_pages
