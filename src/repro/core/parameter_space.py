"""Parameter spaces for robustness sweeps.

The paper sweeps selectivity on log-spaced grids where "query result
sizes differ by a factor of 2 between data points", from 2^-16 of the
table up to the full table.  :func:`log2_targets` builds exactly those
grids; :class:`Space1D` / :class:`Space2D` carry them plus axis metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError


def log2_targets(min_exp: int = -16) -> np.ndarray:
    """Selectivity grid 2^min_exp .. 1 (the full table), one point per doubling."""
    if min_exp > 0:
        raise ExperimentError(f"min_exp {min_exp} exceeds 0, the full table")
    exponents = np.linspace(min_exp, 0, -min_exp + 1)
    return np.power(2.0, exponents)


@dataclass(frozen=True)
class Space1D:
    """One swept parameter (axis label + target values)."""

    name: str
    targets: np.ndarray

    def __post_init__(self) -> None:
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim != 1 or targets.size == 0:
            raise ExperimentError("targets must be a non-empty 1-D array")
        if np.any(np.diff(targets) <= 0):
            raise ExperimentError("targets must be strictly increasing")
        object.__setattr__(self, "targets", targets)

    @property
    def n_points(self) -> int:
        return int(self.targets.size)

    @classmethod
    def log2(cls, name: str, min_exp: int = -16) -> "Space1D":
        """The paper's factor-of-2 selectivity grid."""
        return cls(name, log2_targets(min_exp))


@dataclass(frozen=True)
class Space2D:
    """Two swept parameters (the paper's 2-D maps, Figs 4-10)."""

    x: Space1D
    y: Space1D

    @classmethod
    def log2(cls, x_name: str, y_name: str, min_exp: int = -16) -> "Space2D":
        return cls(Space1D.log2(x_name, min_exp), Space1D.log2(y_name, min_exp))
