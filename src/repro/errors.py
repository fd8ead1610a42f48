"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish storage, execution, and analysis failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class StorageError(ReproError):
    """Raised for storage-engine failures (B-tree, buffer pool, pages)."""


class KeyCodecError(StorageError):
    """Raised when a key cannot be encoded into an order-preserving int64."""


class BufferPoolError(StorageError):
    """Raised for a pool of less than one page (``BufferPool``, ``pool_pages``)."""


class ExecutionError(ReproError):
    """Raised when a query execution plan cannot be run."""


class MemoryGrantError(ExecutionError):
    """Raised when an operator violates its memory grant protocol."""


class PlanError(ExecutionError):
    """Raised when a plan tree is malformed or a hint cannot be honored."""


class WorkloadError(ReproError):
    """Raised for invalid workload / data-generation parameters."""


class ExperimentError(ReproError):
    """Raised when an experiment definition or sweep is invalid."""


class VisualizationError(ReproError):
    """Raised when a map cannot be rendered."""
