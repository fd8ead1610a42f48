"""Lightweight counter/gauge/histogram registry with Prometheus exposition.

Stdlib-only and thread-safe: the service's worker threads and HTTP
handler threads share one :class:`MetricsRegistry` per
:class:`~repro.service.jobs.JobManager`, and ``GET /metrics`` renders it
in the Prometheus text format (version 0.0.4), so any Prometheus-
compatible scraper can watch queue depth, dedup fan-in, cache hit rates,
and job latency without new dependencies.

Metric instances are cheap handles: ``registry.counter(...)`` is
get-or-create, so instrumentation sites can re-ask by name instead of
threading objects around.  Labeled series are materialized on first use
(``counter.inc(reason="queue_full")``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterator

from repro.errors import ExperimentError

#: Default histogram bucket bounds (seconds): spans service jobs from
#: warm cache hits (~ms) to budgeted cold sweeps (~minutes).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005,
    0.025,
    0.1,
    0.5,
    1.0,
    2.5,
    10.0,
    30.0,
    60.0,
    120.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base: a named family of samples sharing one TYPE/HELP header."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()

    def samples(self) -> Iterator[tuple[str, str, float]]:
        """Yield ``(suffix, rendered_labels, value)`` triples."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples():
            lines.append(
                f"{self.name}{suffix}{labels} {_format_value(value)}"
            )
        return "\n".join(lines)


class Counter(Metric):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ExperimentError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def samples(self) -> Iterator[tuple[str, str, float]]:
        with self._lock:
            values = dict(self._values) or {(): 0.0}
        for key in sorted(values):
            yield "", _render_labels(key), values[key]


class Gauge(Metric):
    """A value that can go up and down; optionally callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self) -> None:
        self.inc(-1.0)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn`` at render time instead of a stored value."""
        with self._lock:
            self._fn = fn

    def value(self) -> float:
        with self._lock:
            fn = self._fn
            stored = self._value
        return float(fn()) if fn is not None else stored

    def samples(self) -> Iterator[tuple[str, str, float]]:
        yield "", "", self.value()


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ExperimentError(f"histogram {name} needs bucket bounds")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        position = bisect_left(self.bounds, float(value))
        with self._lock:
            self._counts[position] += 1
            self._sum += float(value)
            self._count += 1

    def samples(self) -> Iterator[tuple[str, str, float]]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            summed = self._sum
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            yield (
                "_bucket",
                _render_labels((("le", _format_value(bound)),)),
                float(cumulative),
            )
        yield "_bucket", _render_labels((("le", "+Inf"),)), float(total)
        yield "_sum", "", summed
        yield "_count", "", float(total)


class MetricsRegistry:
    """Named metrics with get-or-create access and text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory: Callable[[], Metric]) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, help_text))
        if not isinstance(metric, Counter):
            raise ExperimentError(f"metric {name} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name, help_text))
        if not isinstance(metric, Gauge):
            raise ExperimentError(f"metric {name} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets)
        )
        if not isinstance(metric, Histogram):
            raise ExperimentError(
                f"metric {name} is a {metric.kind}, not a histogram"
            )
        return metric

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return "\n".join(metric.render() for metric in metrics) + "\n"

