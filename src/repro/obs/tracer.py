"""Sim-time span tracing: a deterministic flight recorder for plan execution.

Executor nodes open *spans* around their work; each span is stamped with
the virtual :class:`~repro.sim.clock.SimClock` timestamps at entry and
exit and annotated with the counters the region accumulated (disk pages,
buffer-pool hits/misses, spill pages, memory grants).  Because every
timestamp is virtual, traces are **bit-deterministic** artifacts: the same
plan over the same data always produces the same trace, byte for byte.

The invariant: **spans observe charging, they never alter it**.  A span
reads the clock and the device statistics; it never advances the clock,
touches the buffer pool, or charges CPU.  Tracing on vs. off therefore
yields bit-identical maps — golden fixtures need no re-baseline when
tracing ships or evolves.

The tracer is carried in a :class:`~contextvars.ContextVar`; the default
is ``None`` and :func:`trace_op` then returns a shared no-op span whose
enter/exit do nothing, so untraced execution pays one context-var read
per *operator* (not per row or page).  Install a tracer for a region with
:func:`use_tracer`; the context-var scoping keeps concurrent measurements
(service worker threads) independent.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Iterator

#: Names of the per-span counter deltas, aligned with :func:`_snapshot`.
COUNTER_NAMES: tuple[str, ...] = (
    "pages_read",
    "random_reads",
    "pages_written",
    "pool_hits",
    "pool_misses",
    "pool_evictions",
    "spill_pages",
    "mem_granted_bytes",
    "mem_grants",
    "mem_denials",
)


def _snapshot(ctx: Any) -> tuple[int, ...]:
    """Read the cumulative counters a span's deltas are computed from.

    ``ctx`` is duck-typed (any object with ``clock``/``disk``/``pool``/
    ``temp``/``broker`` in the :class:`~repro.executor.context.ExecContext`
    shape) so this module never imports the executor — the executor
    imports *us*, keeping the dependency one-way.
    """
    disk = ctx.disk.stats
    pool = ctx.pool.stats
    broker = ctx.broker
    return (
        disk.pages_read,
        disk.random_reads,
        disk.pages_written,
        pool.hits,
        pool.misses,
        pool.evictions,
        ctx.temp.pages_spilled,
        broker.granted_bytes,
        broker.grants,
        broker.denials,
    )


@dataclass
class Span:
    """One traced region: virtual time bounds plus counter deltas.

    ``t0``/``t1`` are virtual seconds on the measurement's clock (which
    rewinds to zero at every cold reset, so spans of one measurement
    start near zero regardless of sweep history).  ``counters`` holds
    only the counters that changed inside the region — untouched
    counters are omitted to keep serialized profiles compact.
    """

    name: str
    cat: str
    t0: float
    t1: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Inclusive virtual seconds (children included)."""
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=str(data["name"]),
            cat=str(data["cat"]),
            t0=float(data["t0"]),
            t1=float(data["t1"]),
            counters={
                str(k): int(v) for k, v in data.get("counters", {}).items()
            },
            children=[
                cls.from_dict(child) for child in data.get("children", [])
            ],
        )


class SpanContext:
    """No-op context manager returned by :func:`trace_op` when untraced.

    Also the base class of the live span handle, so callers see one
    static type either way.  Exceptions always propagate (``__exit__``
    returns ``False``): a budget abort unwinds through open spans,
    closing each at the abort's clock value.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NOOP_SPAN = SpanContext()


class _SpanHandle(SpanContext):
    """Live span handle: snapshots counters at enter, deltas at exit."""

    __slots__ = ("_tracer", "_ctx", "_name", "_cat")

    def __init__(self, tracer: "Tracer", ctx: Any, name: str, cat: str) -> None:
        self._tracer = tracer
        self._ctx = ctx
        self._name = name
        self._cat = cat

    def __enter__(self) -> None:
        self._tracer._enter(self._ctx, self._name, self._cat)
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self._tracer._exit(self._ctx)
        return False


class Tracer:
    """Collects spans into trees, one root per top-level traced region."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[tuple[Span, tuple[int, ...]]] = []

    def begin(self, ctx: Any, name: str, cat: str) -> SpanContext:
        return _SpanHandle(self, ctx, name, cat)

    def _enter(self, ctx: Any, name: str, cat: str) -> None:
        now = float(ctx.clock.now)
        span = Span(name=name, cat=cat, t0=now, t1=now)
        self._stack.append((span, _snapshot(ctx)))

    def _exit(self, ctx: Any) -> None:
        span, before = self._stack.pop()
        span.t1 = float(ctx.clock.now)
        after = _snapshot(ctx)
        for name, b, a in zip(COUNTER_NAMES, before, after):
            if a != b:
                span.counters[name] = a - b
        if self._stack:
            self._stack[-1][0].children.append(span)
        else:
            self.roots.append(span)

    def drain(self) -> list[Span]:
        """Detach and return the collected roots (tracer becomes empty)."""
        roots = self.roots
        self.roots = []
        self._stack.clear()
        return roots


_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install ``tracer`` for the duration of the ``with`` block."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def trace_op(ctx: Any, name: str, cat: str = "operator") -> SpanContext:
    """Open a span around an operator region (near-zero cost untraced).

    Usage::

        with trace_op(ctx, "table-scan", "scan"):
            ...  # charging happens here; the span only observes it
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NOOP_SPAN
    return tracer.begin(ctx, name, cat)


def tracing_requested(environ: Any | None = None) -> bool:
    """Whether the ``REPRO_TRACE`` environment knob asks for tracing."""
    env = os.environ if environ is None else environ
    return str(env.get("REPRO_TRACE", "")).strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }
