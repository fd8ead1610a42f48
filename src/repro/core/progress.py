"""Structured sweep progress events.

Historically the sweep engines reported progress as free-form strings and
the CLI grepped ``"eta"`` back out of them to decide what to annotate.
:class:`ProgressEvent` replaces that protocol: every path — the serial
per-cell loop, the parallel per-chunk collector, and the wave-based
refinement driver — emits one structured event carrying the scenario
name, cells done/total, and the elapsed seconds since the sweep began.

Renderers never parse: :meth:`ProgressEvent.render` (also ``str()``)
produces the same human-readable lines the string protocol used, ETA
included, so existing ``lambda message: print(message)`` consumers keep
working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.mapdata import MapData


def checked_snapshot_every(snapshot_every: int | None) -> int | None:
    """A snapshot stride, refused unless it is None (off) or at least 1."""
    if snapshot_every is not None and snapshot_every < 1:
        raise ExperimentError(
            f"snapshot_every must be >= 1, got {snapshot_every}"
        )
    return snapshot_every


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick of a sweep.

    ``kind`` distinguishes the three emitters: ``"cell"`` (serial loop,
    one event per measured cell), ``"chunk"`` (parallel engine, one event
    per finished worker chunk), and ``"round"`` (refinement driver, one
    event per completed wave).  ``done``/``total`` always count *cells*;
    chunk events additionally carry ``parts_done``/``parts_total`` and
    round events carry ``round_index``/``wave_cells``.

    ``cache_hits`` counts the cells of the current scope (the sweep for
    cell/chunk events, the wave for round events) that were answered by
    the content-addressed cell store instead of being measured; ``None``
    means no store was configured, so existing streams are unchanged.

    ``snapshot``, when present, is a *partial* :class:`MapData` holding
    every cell measured so far (``meta["cells"]`` coverage; see
    :attr:`MapData.measured_mask`).  Engines attach snapshots only when
    explicitly asked to (``snapshot_every``) — the default streams stay
    lightweight and :meth:`render` never mentions them.  Measured values
    in a snapshot are bit-identical to the finished map's; consumers such
    as the map service serialize it to answer partial-map polls while the
    sweep is still running.
    """

    scenario: str
    done: int
    total: int
    elapsed: float
    kind: str = "cell"
    detail: str = ""
    parts_done: int | None = None
    parts_total: int | None = None
    round_index: int | None = None
    wave_cells: int | None = None
    cache_hits: int | None = None
    snapshot: "MapData | None" = field(default=None, repr=False, compare=False)

    @property
    def cells_per_sec(self) -> float | None:
        """Observed measurement rate, or None before the first cell lands.

        An all-cache-hit wave can legitimately tick with ``elapsed`` of
        0.0; that reports as None too (no rate observed), never a
        division error.
        """
        if self.done <= 0 or self.elapsed <= 0.0:
            return None
        return self.done / self.elapsed

    @property
    def eta(self) -> float | None:
        """Remaining seconds at the observed cell rate (None if unknowable).

        Round events have no ETA: a refinement sweep's ``total`` is the
        full grid, but how much of it the policy will actually measure
        is unknown until it stops, so extrapolating would wildly
        overestimate.  ``done == 0`` — e.g. the zero-progress tick of a
        wave whose cells were all cache hits — has no observed rate, so
        the ETA is unknowable (None), not zero and not an extrapolation
        from nothing.
        """
        if self.kind == "round":
            return None
        if self.done == 0:
            return None
        if self.total <= self.done:
            return 0.0 if self.total == self.done else None
        return self.elapsed / self.done * (self.total - self.done)

    def _timing(self) -> str:
        eta = self.eta
        if eta is None:
            return f"elapsed {self.elapsed:.1f}s"
        return f"elapsed {self.elapsed:.1f}s, eta {eta:.1f}s"

    def _cached(self) -> str:
        if self.cache_hits is None:
            return ""
        return f", {self.cache_hits} cached"

    def render(self) -> str:
        """The human-readable progress line (matches the old strings)."""
        if self.kind == "chunk":
            return (
                f"{self.scenario} sweep: {self.done}/{self.total} cells "
                f"({self.parts_done}/{self.parts_total} chunks"
                f"{self._cached()}, {self._timing()})"
            )
        if self.kind == "round":
            return (
                f"{self.scenario} refine round {self.round_index}: "
                f"{self.wave_cells} cells measured "
                f"({self.done}/{self.total} total{self._cached()}, "
                f"{self._timing()})"
            )
        described = f" ({self.detail})" if self.detail else ""
        return (
            f"{self.scenario} cell {self.done}/{self.total}{described} "
            f"[{self._timing()}{self._cached()}]"
        )

    __str__ = render
