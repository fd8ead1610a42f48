"""Logging setup for the service tier: plain lines or JSON, one knob.

``setup_logging()`` configures the ``repro`` logger hierarchy once
(idempotent: re-running replaces the handler it installed, never
stacking duplicates).  ``REPRO_LOG_FORMAT=json`` switches the formatter
to one-object-per-line JSON — machine-ingestable service logs without a
logging dependency.  Library code grabs loggers via :func:`get_logger`
and never configures handlers itself.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from typing import Any, IO

_ROOT_LOGGER = "repro"
_HANDLER_FLAG = "_repro_obs_handler"


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, message, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S%z"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def log_format(environ: Any | None = None) -> str:
    """The configured log format name: ``"json"`` or ``"plain"``."""
    env = os.environ if environ is None else environ
    value = str(env.get("REPRO_LOG_FORMAT", "")).strip().lower()
    return "json" if value == "json" else "plain"


def setup_logging(
    level: int = logging.INFO,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Configure the ``repro`` logger; returns it.

    The format is :func:`log_format`'s (``REPRO_LOG_FORMAT``).  Logs go
    to ``stream`` (default stderr), so stdout stays clean for piped
    map/SVG output.
    """
    logger = logging.getLogger(_ROOT_LOGGER)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    setattr(handler, _HANDLER_FLAG, True)
    if log_format() == "json":
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
    logger.addHandler(handler)
    return logger


def get_logger(name: str) -> logging.Logger:
    """A child logger under the ``repro`` hierarchy."""
    return logging.getLogger(f"{_ROOT_LOGGER}.{name}")
