"""Wall-clock spans recorded from outside the program.

``obs.Tracer`` stamps *virtual* seconds; this recorder stamps host
seconds (``time.perf_counter``) around calls into each layer's public
functions, by swapping a timing wrapper in for the function while a
traced run is active.  Nothing under ``src/`` changes: the wrappers are
installed by :func:`instrument` and removed when its context exits.

A span carries a name, a layer, an optional label (scenario, figure id,
render format), start, end, the span that caused it, the request it
belongs to and the thread it ran on.  Spans stay in memory until the
benchmark writes them out.  :func:`self_seconds` turns the spans of a
replay into a partition of its wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    thread: int
    name: str
    layer: str
    label: str | None
    start: float
    end: float = 0.0
    outermost: bool = True
    """False when an enclosing span on the same thread has the same
    name, so summing durations by name never counts a second twice."""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of the benchmark process.

    The thread that creates the recorder is the *client*: the one that
    issues requests.  A span opened on any other thread (a job worker, an
    HTTP handler) with nothing open above it is caused by whatever the
    client is doing at that moment, so its parent is the client's
    innermost open span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self.client_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self.client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        label: str | None = None,
        opaque: bool = False,
        adopt: tuple[str, ...] = (),
    ) -> Iterator[Span | None]:
        """Record one span; ``opaque`` hides every span nested in it.

        Opaque spans are hot leaves where nested wrappers would only add
        cost.  A span directly inside one of the spans named in
        ``adopt`` takes that span's layer: the budget yardstick *is* one
        table scan, so the scan counts as the yardstick's, not the
        executor's.
        """
        if getattr(self._local, "muted", 0):
            yield None
            return
        stack = self._stack()
        if stack and stack[-1].name in adopt:
            layer = stack[-1].layer
        if stack:
            parent: int | None = stack[-1].id
        elif self._client_stack and stack is not self._client_stack:
            parent = self._client_stack[-1].id
        else:
            parent = None
        span_id = next(self._ids)
        if stack is self._client_stack and not stack:
            # A client span with nothing above it starts a request; every
            # span until it closes, on any thread, carries its id.
            self.request = f"r{span_id}"
        span = Span(
            id=span_id,
            parent=parent,
            request=self.request,
            thread=threading.get_ident(),
            name=name,
            layer=layer,
            label=label,
            start=time.perf_counter(),
            outermost=all(open_span.name != name for open_span in stack),
        )
        stack.append(span)
        if opaque:
            self._local.muted = 1
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if opaque:
                self._local.muted = 0
            stack.pop()
            self.spans.append(span)

    def drain(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def to_json(spans: list[Span]) -> list[dict]:
        return [asdict(span) for span in spans]


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap(start: float, end: float, merged: list[tuple[float, float]]) -> float:
    return sum(
        max(0.0, min(end, hi) - max(start, lo)) for lo, hi in merged
    )


def self_seconds(spans: list[Span], client_thread: int) -> dict[int, float]:
    """Each span's own share of the wall clock, by span id.

    A span's self time is its duration minus what its children on the
    same thread cover.  While a server-side thread has a span open the
    client is only waiting for it, so that stretch belongs to the
    server-side span and is taken out of the client span it falls in.
    With one client and one job at a time the values sum to the
    duration of the client's root spans exactly.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, float] = {}
    client_children: dict[int, list[tuple[float, float]]] = {}
    server_roots: list[tuple[float, float]] = []
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.thread == span.thread:
            children[parent.id] = children.get(parent.id, 0.0) + span.seconds
            if span.thread == client_thread:
                client_children.setdefault(parent.id, []).append(
                    (span.start, span.end)
                )
        elif span.thread != client_thread:
            server_roots.append((span.start, span.end))
    busy = _merge(server_roots)
    own: dict[int, float] = {}
    for span in spans:
        self_s = span.seconds - children.get(span.id, 0.0)
        if span.thread == client_thread and busy:
            self_s -= _overlap(span.start, span.end, busy) - sum(
                _overlap(lo, hi, busy)
                for lo, hi in client_children.get(span.id, [])
            )
        own[span.id] = self_s
    return own


def by_layer(
    spans: list[Span], own: dict[int, float]
) -> dict[str, dict[str, float]]:
    """Layer -> {"self_s", "calls"}: the ledger of one replay."""
    ledger: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = ledger.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[span.id]
        entry["calls"] += 1
    return ledger


def own_seconds(
    spans: list[Span], own: dict[int, float], name: str
) -> float:
    """Summed self time of the spans called ``name``."""
    return sum(own[span.id] for span in spans if span.name == name)


def total_seconds(
    spans: list[Span], name: str, label: str | None = None
) -> float:
    """Summed duration of the outermost spans called ``name``."""
    return sum(
        span.seconds
        for span in spans
        if span.name == name
        and span.outermost
        and (label is None or span.label == label)
    )


def count(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _timed(
    recorder: Recorder,
    fn: Callable,
    name: str,
    layer: str,
    label: Callable[..., str | None] | None,
    opaque: bool,
    when: Callable[..., bool] | None,
    after: Callable[[str | None, object], None] | None = None,
    adopt: tuple[str, ...] = (),
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        tag = label(*args, **kwargs) if label is not None else None
        with recorder.span(name, layer, tag, opaque, adopt):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tag, result)
        return result

    return wrapper


class _Patcher:
    """Swaps callables for timed ones and puts every original back."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def attr(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        label: Callable[..., str | None] | None = None,
        opaque: bool = False,
        when: Callable[..., bool] | None = None,
        after: Callable[[str | None, object], None] | None = None,
        adopt: tuple[str, ...] = (),
    ) -> None:
        raw = vars(owner)[attr]
        wrap = lambda fn: _timed(  # noqa: E731
            self.recorder, fn, name, layer, label, opaque, when, after, adopt
        )
        if isinstance(raw, classmethod):
            timed: object = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            timed = staticmethod(wrap(raw.__func__))
        elif isinstance(raw, property):
            timed = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            timed = wrap(raw)
        setattr(owner, attr, timed)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def item(
        self, mapping: dict, key: str, name: str, layer: str, label: str
    ) -> None:
        raw = mapping[key]
        mapping[key] = _timed(
            self.recorder, raw, name, layer, lambda *a, **k: label, False, None
        )
        self._undo.append(lambda: mapping.__setitem__(key, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


@contextmanager
def instrument(
    recorder: Recorder,
    on_map: Callable[[str | None, object], None] | None = None,
) -> Iterator[None]:
    """Time the calls into each layer for as long as the context is open.

    ``on_map(scenario, mapdata)`` sees every map a sweep produced, so the
    simulated statistics can be totalled after the replay.

    Every target is a public name of its module or class, reached from
    outside; the two exceptions read one private attribute each and are
    marked below.  A name another module imported with ``from x import
    y`` is patched where it is *used*, because that module holds its own
    reference.
    """
    import types

    import repro.bench.cli as bench_cli
    import repro.bench.figures as bench_figures
    import repro.bench.harness as harness
    import repro.bench.requests as requests
    import repro.core.cellstore as cellstore
    import repro.core.parallel as parallel
    import repro.core.runner as runner
    import repro.core.scenario as scenario
    import repro.service.http as service_http
    import repro.viz.figures as viz_figures
    import repro.viz.legend as viz_legend
    import repro.viz.png as viz_png
    import repro.viz.render as viz_render
    import repro.viz.svg as viz_svg
    from repro.core.mapdata import MapData
    from repro.executor.plans import PlanRunner
    from repro.optimizer.chooser import PlanChooser
    from repro.service.jobs import JobManager
    from repro.systems.base import DatabaseSystem

    patch = _Patcher(recorder)
    try:
        # bench.harness / bench.requests
        build = ("bench.session_build", "bench.session_build")
        patch.attr(DatabaseSystem, "__init__", *build)
        patch.attr(harness, "build_three_systems", *build)
        patch.attr(requests, "build_three_systems", *build)
        patch.attr(
            harness.BenchSession,
            "table_scan_seconds",
            "bench.budget_yardstick",
            "bench.budget_yardstick",
        )
        patch.attr(
            harness,
            "compute_map",
            "bench.compute_map",
            "bench.requests",
            label=lambda session, definition: definition.name,
            after=on_map,
        )
        # bench.figures (the CLI looks figures up in this dict per run)
        for figure_id in list(bench_figures.ALL_FIGURES):
            patch.item(
                bench_figures.ALL_FIGURES,
                figure_id,
                "bench.figure",
                "bench.figures",
                figure_id,
            )
        # executor: one opaque span per plan measurement
        patch.attr(
            PlanRunner,
            "measure",
            "executor.measure",
            "executor",
            opaque=True,
            adopt=("bench.budget_yardstick",),
        )
        # core.scenario: per-cell query and plan construction
        for cls in vars(scenario).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, scenario.Scenario)
                and "cell" in vars(cls)
                and cls is not scenario.Scenario
            ):
                patch.attr(cls, "cell", "core.scenario.cell", "core.scenario")
        # the two sweep engines
        patch.attr(
            runner.RobustnessSweep, "sweep", "core.runner.sweep", "core.runner"
        )
        patch.attr(
            parallel.ParallelSweep,
            "sweep",
            "core.parallel.sweep",
            "core.parallel",
        )
        # core.cellstore
        store = "core.cellstore"
        patch.attr(cellstore.CellStore, "put_many", f"{store}.put_many", store)
        patch.attr(cellstore.CellStore, "compact", f"{store}.compact", store)
        patch.attr(
            cellstore.CellStore,
            "index",
            f"{store}.load_index",
            store,
            # Private read: the property is hit once per key, and only
            # the call that finds no index yet scans the shards.
            when=lambda self: self._index is None,
        )
        for module in (runner, parallel):
            patch.attr(module, "lookup_cells", f"{store}.lookup", store)
        patch.attr(parallel, "records_from_part", f"{store}.records", store)
        # core.mapdata
        for method in ("merge", "to_dict", "from_dict", "densify"):
            patch.attr(MapData, method, f"core.mapdata.{method}", "core.mapdata")
        # optimizer
        patch.attr(
            harness.BenchSession,
            "choice_maps",
            "optimizer.choice_maps",
            "optimizer",
        )
        patch.attr(
            PlanChooser, "choose", "optimizer.choose", "optimizer", opaque=True
        )
        # viz: every public function, at home and wherever it was imported
        viz_modules = (viz_figures, viz_legend, viz_png, viz_svg, viz_render)
        consumers = viz_modules + (bench_figures, bench_cli, service_http)
        for module in consumers:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in {m.__name__ for m in viz_modules}
                ):
                    patch.attr(
                        module,
                        attr,
                        f"viz.{value.__name__}",
                        "viz",
                        label=(
                            (lambda mapdata, plan_id, fmt: fmt)
                            if value.__name__ == "render_map"
                            else None
                        ),
                    )
        # artifact and cache files written through pathlib
        import pathlib

        for method in ("write_text", "write_bytes"):
            patch.attr(pathlib.Path, method, "io.write", "io.artifacts")
        # service: the server side of a submission
        patch.attr(JobManager, "submit", "service.submit", "service")
        yield
    finally:
        patch.restore()
