"""Deterministic column generators.

All generators take an explicit :class:`numpy.random.Generator` so that a
table build is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def uniform_column(
    rng: np.random.Generator, n_rows: int, domain: int
) -> np.ndarray:
    """Uniform integers in ``[0, domain)``."""
    if domain <= 0:
        raise WorkloadError(f"domain must be positive, got {domain}")
    return rng.integers(0, domain, n_rows, dtype=np.int64)


def sequential_column(n_rows: int) -> np.ndarray:
    """Monotonically increasing ints (order keys, timestamps)."""
    if n_rows < 0:
        raise WorkloadError(f"n_rows must be non-negative, got {n_rows}")
    return np.arange(n_rows, dtype=np.int64)
