"""Per-cell execution profiles: captured span trees, views, and exports.

A :class:`CellProfile` is one ``(plan, cell)`` measurement's span tree
(see :mod:`repro.obs.tracer`) plus the measurement's raw virtual seconds
and abort flag.  Profiles are plain-JSON serializable, so they travel in
parallel-sweep parts, persist in the content-addressed cell store, and
ride along in ``MapData.meta["profiles"]`` — from which
:meth:`~repro.core.mapdata.MapData.to_dict` deliberately excludes them,
keeping cached map JSON and golden fixtures byte-identical whether
tracing was on or off.

Export: :func:`chrome_trace` emits Chrome trace-event JSON viewable in
Perfetto (``ui.perfetto.dev``) or ``chrome://tracing`` — one process
per cell, one thread per plan, counters in ``args``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.tracer import Span

#: The ``MapData.meta`` key profiles ride under (excluded from JSON).
PROFILES_META_KEY = "profiles"

#: Suffix appended to a plan id to form a profile's cell-store address,
#: keeping profile entries disjoint from measurement records.
STORE_KEY_SUFFIX = "#profile"


def profile_key(plan_id: str, cell: Sequence[int]) -> str:
    """The ``meta["profiles"]`` key of one (plan, cell) profile."""
    return f"{plan_id}@{','.join(str(int(c)) for c in cell)}"


@dataclass
class CellProfile:
    """One measurement's execution profile.

    ``seconds`` is the *raw* measured virtual time — jitter, which the
    sweep applies to the recorded map value afterwards, never touches
    profiles (a profile explains where the simulator spent time, and the
    simulator never executed the jitter).
    """

    plan_id: str
    cell: tuple[int, ...]
    seconds: float
    aborted: bool
    spans: list[Span] = field(default_factory=list)

    def counter_totals(self) -> dict[str, int]:
        """Counter deltas summed over root spans (children are nested)."""
        totals: dict[str, int] = {}
        for root in self.spans:
            for name, value in root.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "cell": [int(c) for c in self.cell],
            "seconds": float(self.seconds),
            "aborted": bool(self.aborted),
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellProfile":
        return cls(
            plan_id=str(data["plan_id"]),
            cell=tuple(int(c) for c in data["cell"]),
            seconds=float(data["seconds"]),
            aborted=bool(data["aborted"]),
            spans=[Span.from_dict(span) for span in data.get("spans", [])],
        )


def profiles_from_meta(meta: Mapping[str, Any]) -> dict[str, CellProfile]:
    """Decode every profile riding in a ``MapData.meta`` mapping."""
    raw = meta.get(PROFILES_META_KEY, {})
    return {key: CellProfile.from_dict(value) for key, value in raw.items()}


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------

_MICROSECONDS = 1e6


def _span_events(
    span: Span, pid: int, tid: int, events: list[dict[str, Any]]
) -> None:
    event: dict[str, Any] = {
        "name": span.name,
        "cat": span.cat,
        "ph": "X",
        "ts": span.t0 * _MICROSECONDS,
        "dur": span.duration * _MICROSECONDS,
        "pid": pid,
        "tid": tid,
    }
    if span.counters:
        event["args"] = {k: int(v) for k, v in span.counters.items()}
    events.append(event)
    for child in span.children:
        _span_events(child, pid, tid, events)


def chrome_trace(profiles: Iterable[CellProfile]) -> dict[str, Any]:
    """Chrome trace-event JSON for a set of profiles.

    Every distinct cell becomes a "process", every plan within it a
    "thread" (named via ``M`` metadata events), so Perfetto lays the
    plans of one cell out as parallel tracks on a shared virtual-time
    axis.  Timestamps are the spans' virtual seconds in microseconds —
    deterministic, so two exports of the same sweep diff clean.
    """
    events: list[dict[str, Any]] = []
    pids: dict[tuple[int, ...], int] = {}
    tids: dict[tuple[int, str], int] = {}
    for profile in profiles:
        pid = pids.get(profile.cell, 0)
        if pid == 0:
            pid = len(pids) + 1
            pids[profile.cell] = pid
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {
                        "name": f"cell {','.join(map(str, profile.cell))}"
                    },
                }
            )
        tid = tids.get((pid, profile.plan_id), 0)
        if tid == 0:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[(pid, profile.plan_id)] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": profile.plan_id},
                }
            )
        for root in profile.spans:
            _span_events(root, pid, tid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path, profiles: Iterable[CellProfile]
) -> Path:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(profiles), sort_keys=True))
    return path
