"""Observability: deterministic tracing, execution profiles, metrics, logs.

Three planes, all stdlib + NumPy only:

* :mod:`repro.obs.tracer` — sim-time span tracing with a no-op default;
  spans observe charging, never alter it (maps stay bit-identical).
* :mod:`repro.obs.profile` — per-cell :class:`CellProfile` span trees,
  grid projections (:func:`profile_map`), and Chrome trace export.
* :mod:`repro.obs.metrics` / :mod:`repro.obs.logs` — the service plane:
  Prometheus-text metrics and structured (optionally JSON) logging.
"""

from repro.obs.logs import JsonFormatter, get_logger, log_format, setup_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PROFILES_META_KEY,
    CellProfile,
    chrome_trace,
    parse_profile_key,
    profile_key,
    profile_map,
    profiles_from_meta,
    write_chrome_trace,
)
from repro.obs.tracer import (
    COUNTER_NAMES,
    Span,
    SpanContext,
    Tracer,
    trace_op,
    tracing_requested,
    use_tracer,
)

__all__ = [
    "COUNTER_NAMES",
    "CellProfile",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "PROFILES_META_KEY",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "get_logger",
    "log_format",
    "parse_profile_key",
    "profile_key",
    "profile_map",
    "profiles_from_meta",
    "setup_logging",
    "trace_op",
    "tracing_requested",
    "use_tracer",
    "write_chrome_trace",
]
