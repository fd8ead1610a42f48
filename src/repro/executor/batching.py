"""Global switch between batched and per-item reference execution paths.

The batched execution core charges virtual time in vectorized aggregates
(:meth:`SimClock.advance_many`, :meth:`BufferPool.plan_many`,
:meth:`BPlusTree.probe_many`, :meth:`Disk.read_runs`) that are
bit-identical to the per-item loops they replace.  The per-item loops are
kept as *reference paths*: identity tests assert that both modes measure
exactly the same virtual time, page faults, and eviction order.

The switch is process-global (not per-context) because a measurement's
virtual cost must not depend on which code path produced it — the modes
are interchangeable by construction, so a global toggle is safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_batched: bool = True


def batched_enabled() -> bool:
    """Whether operators should take the vectorized charging paths."""
    return _batched


def set_batched(enabled: bool) -> bool:
    """Set the execution mode; returns the previous mode."""
    global _batched
    previous = _batched
    _batched = bool(enabled)
    return previous


@contextmanager
def use_batched(enabled: bool) -> Iterator[None]:
    """Temporarily force batched (or reference) execution paths."""
    previous = set_batched(enabled)
    try:
        yield
    finally:
        set_batched(previous)
