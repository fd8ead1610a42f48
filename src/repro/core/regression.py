"""Map-based regression testing.

§1: robustness maps "can inform regression testing as well as motivate,
track, and protect improvements in query execution"; §4 plans "daily
regression testing in order to protect the progress against accidental
regression due to other, seemingly unrelated, software changes."

:func:`compare_maps` diffs two measured maps of the same sweep (e.g.
before and after an engine change) and flags every cell whose cost grew
beyond a threshold factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mapdata import MapData
from repro.errors import ExperimentError


@dataclass(frozen=True)
class RegressionFinding:
    """One regressed (plan, cell) pair."""

    plan_id: str
    cell: tuple[int, ...]
    before_seconds: float
    after_seconds: float

    @property
    def factor(self) -> float:
        if self.before_seconds == 0.0:
            return float("inf") if self.after_seconds > 0.0 else 1.0
        return self.after_seconds / self.before_seconds

    def __str__(self) -> str:
        return (
            f"{self.plan_id} at cell {self.cell}: "
            f"{self.before_seconds:.4g}s -> {self.after_seconds:.4g}s "
            f"({self.factor:.2f}x)"
        )


@dataclass
class RegressionReport:
    """Outcome of comparing an 'after' map against a 'before' map."""

    threshold: float
    findings: list[RegressionFinding] = field(default_factory=list)
    improvements: list[RegressionFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings

    @property
    def worst_factor(self) -> float:
        if not self.findings:
            return 1.0
        return max(finding.factor for finding in self.findings)

    def summary(self) -> str:
        if self.passed:
            gains = len(self.improvements)
            return f"PASS: no cell regressed beyond {self.threshold:g}x ({gains} cells improved)"
        return (
            f"FAIL: {len(self.findings)} cells regressed beyond "
            f"{self.threshold:g}x (worst {self.worst_factor:.2f}x)"
        )


def compare_maps(
    before: MapData,
    after: MapData,
    threshold: float = 1.5,
) -> RegressionReport:
    """Flag cells where ``after`` is slower than ``before`` by > threshold.

    Both maps must cover the same plans and grid.  Cells censored in
    either map are compared conservatively: newly censored cells are
    always regressions; cells censored in both are skipped.
    """
    if before.plan_ids != after.plan_ids:
        raise ExperimentError(
            f"plan sets differ: {before.plan_ids} vs {after.plan_ids}"
        )
    if before.grid_shape != after.grid_shape:
        raise ExperimentError(
            f"grid shapes differ: {before.grid_shape} vs {after.grid_shape}"
        )
    if threshold <= 1.0:
        raise ExperimentError(f"threshold must exceed 1.0, got {threshold}")
    report = RegressionReport(threshold=threshold)
    for p, plan_id in enumerate(before.plan_ids):
        before_slice = before.times[p]
        after_slice = after.times[p]
        for cell in np.ndindex(*before.grid_shape):
            b = float(before_slice[cell])
            a = float(after_slice[cell])
            b_censored = np.isnan(b)
            a_censored = np.isnan(a)
            if b_censored and a_censored:
                continue
            if not b_censored and a_censored:
                report.findings.append(
                    RegressionFinding(plan_id, cell, b, float("inf"))
                )
                continue
            if b_censored and not a_censored:
                report.improvements.append(
                    RegressionFinding(plan_id, cell, float("inf"), a)
                )
                continue
            # Zero-cost cells cannot form a quotient: a plan that was
            # free before and costs anything now regressed by an
            # unbounded factor (and the mirror image is an improvement).
            if b == 0.0:
                if a > 0.0:
                    report.findings.append(RegressionFinding(plan_id, cell, b, a))
                continue
            if a == 0.0:
                report.improvements.append(RegressionFinding(plan_id, cell, b, a))
                continue
            if b > 0 and a / b > threshold:
                report.findings.append(RegressionFinding(plan_id, cell, b, a))
            elif a > 0 and b / a > threshold:
                report.improvements.append(RegressionFinding(plan_id, cell, b, a))
    return report
