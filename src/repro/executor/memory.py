"""Workspace memory broker.

Sorts, hash joins, aggregations, and bitmaps acquire workspace from a
shared broker.  When a requested grant does not fit, the operator must
take its spill path — the mechanism behind the paper's §4 observation
that "some implementations of sorting spill their entire input to disk if
the input size exceeds the memory size by merely a single record."
"""

from __future__ import annotations

from repro.errors import MemoryGrantError


class MemoryGrant:
    """A reserved slice of workspace memory; release exactly once."""

    __slots__ = ("_broker", "n_bytes", "_released")

    def __init__(self, broker: "MemoryBroker", n_bytes: int) -> None:
        self._broker = broker
        self.n_bytes = n_bytes
        self._released = False

    def release(self) -> None:
        if self._released:
            raise MemoryGrantError("memory grant released twice")
        self._released = True
        self._broker._release(self.n_bytes)

    def __enter__(self) -> "MemoryGrant":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._released:
            self.release()


class MemoryBroker:
    """Tracks workspace memory for one plan execution."""

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise MemoryGrantError(f"memory limit must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self._in_use = 0
        # Cumulative observability counters (never reset, never consulted
        # by granting decisions — pure telemetry for span deltas).
        self.granted_bytes = 0
        self.grants = 0
        self.denials = 0

    @property
    def available_bytes(self) -> int:
        return self.limit_bytes - self._in_use

    def fits(self, n_bytes: int) -> bool:
        """Whether a grant of this size would currently succeed."""
        return n_bytes <= self.available_bytes

    def grant(self, n_bytes: int) -> MemoryGrant:
        """Reserve workspace; raises :class:`MemoryGrantError` if over limit."""
        if n_bytes < 0:
            raise MemoryGrantError(f"cannot grant negative bytes {n_bytes}")
        if n_bytes > self.available_bytes:
            self.denials += 1
            raise MemoryGrantError(
                f"grant of {n_bytes} bytes exceeds available "
                f"{self.available_bytes} of {self.limit_bytes}"
            )
        self._in_use += n_bytes
        self.granted_bytes += n_bytes
        self.grants += 1
        return MemoryGrant(self, n_bytes)

    def try_grant(self, n_bytes: int) -> MemoryGrant | None:
        """Like :meth:`grant` but returns None instead of raising."""
        if not self.fits(n_bytes):
            self.denials += 1
            return None
        return self.grant(n_bytes)

    def _release(self, n_bytes: int) -> None:
        self._in_use -= n_bytes
        if self._in_use < 0:  # pragma: no cover - defensive
            raise MemoryGrantError("memory accounting went negative")
