"""Device cost constants.

A :class:`DeviceProfile` bundles every hardware parameter the simulation
charges time for.  The defaults model a mid-2000s enterprise disk array and
CPU — the class of hardware behind the paper's measurements — but every
constant is tunable, and robustness maps can be regenerated under any
profile (the paper §3: "Other sizes may lead to new insights").

Two derived quantities matter for the shapes of all maps:

* ``seek_time / page_transfer_time`` — the random-vs-sequential cost ratio
  that determines where index scans lose to table scans (Fig 1);
* ``cpu_row / page_transfer_time`` — how CPU-bound wide scans are, which
  controls the high-selectivity end of every curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError


@dataclass(frozen=True)
class DeviceProfile:
    """Immutable bundle of device cost constants (all times in seconds)."""

    page_size: int = 8192
    """Bytes per disk page / B-tree node."""

    seek_time: float = 4.0e-3
    """Random access latency: average seek + rotational delay."""

    settle_time: float = 2.0e-4
    """Short-seek latency between nearby page runs (track-to-track)."""

    transfer_rate: float = 160.0e6
    """Sequential transfer bandwidth in bytes/second."""

    cpu_row: float = 0.35e-6
    """CPU time to produce/consume one row through one operator."""

    cpu_fetch_row: float = 1.5e-6
    """CPU time to fetch one row by rid (locate in page, copy out).

    Deliberately larger than :attr:`cpu_row`: rid-based fetches pay slot
    lookup and tuple reconstruction that a streaming scan amortizes away.
    This constant sets how much worse the improved index scan is than the
    table scan at 100% selectivity (~2.5x in the paper's Fig 1).
    """

    cpu_compare: float = 0.06e-6
    """CPU time per key comparison (sort, merge, B-tree search)."""

    cpu_hash: float = 0.12e-6
    """CPU time per hash-table insert or probe."""

    cpu_predicate: float = 0.10e-6
    """CPU time to evaluate one predicate clause on one row."""

    cpu_bitmap_op: float = 0.02e-6
    """CPU time per row id inserted into / read from a bitmap."""

    btree_probe_cpu: float = 2.0e-6
    """CPU time for one root-to-leaf B-tree descent (binary searches)."""

    memory_bytes: int = 64 << 20
    """Default workspace memory available to sort/hash operators."""

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ExecutionError("page_size must be positive")
        if self.transfer_rate <= 0:
            raise ExecutionError("transfer_rate must be positive")
        for name in (
            "seek_time",
            "settle_time",
            "cpu_row",
            "cpu_fetch_row",
            "cpu_compare",
            "cpu_hash",
            "cpu_predicate",
            "cpu_bitmap_op",
            "btree_probe_cpu",
        ):
            if getattr(self, name) < 0:
                raise ExecutionError(f"{name} must be non-negative")
        if self.memory_bytes <= 0:
            raise ExecutionError("memory_bytes must be positive")

    @property
    def page_transfer_time(self) -> float:
        """Seconds to stream one page at sequential bandwidth."""
        return self.page_size / self.transfer_rate

    @property
    def random_page_time(self) -> float:
        """Seconds for one cold random page read (seek + transfer)."""
        return self.seek_time + self.page_transfer_time


#: Profile used throughout the test-suite: tiny pages so that small tables
#: still span many pages and exhibit realistic page-level access patterns.
TEST_PROFILE = DeviceProfile(page_size=512, memory_bytes=1 << 20)
