"""Per-plan robustness metrics.

Quantifies what the paper reads off its relative maps: the worst-case
quotient ("a factor of 101,000 ... would likely disrupt data center
operation"), the fraction of the parameter space within small factors of
the best plan, and the area where a plan is outright optimal — the
numbers behind choosing "robustness over performance" (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mapdata import MapData
from repro.core.maps import quotient_for
from repro.core.optimality import optimal_mask

#: Factor thresholds reported in robustness profiles (Fig 6's buckets).
DEFAULT_FACTORS = (2.0, 10.0, 100.0)


@dataclass(frozen=True)
class RobustnessProfile:
    """Summary of one plan's behaviour across the whole parameter space."""

    plan_id: str
    worst_quotient: float
    geomean_quotient: float
    optimal_fraction: float
    within_factor: dict[float, float] = field(default_factory=dict)
    censored_cells: int = 0

    def describe(self) -> str:
        within = ", ".join(
            f"<={factor:g}x: {fraction:.0%}"
            for factor, fraction in sorted(self.within_factor.items())
        )
        return (
            f"{self.plan_id}: worst {self.worst_quotient:,.0f}x, "
            f"geomean {self.geomean_quotient:.2f}x, "
            f"optimal on {self.optimal_fraction:.0%} ({within})"
        )


def profile_plan(mapdata: MapData, plan_id: str) -> RobustnessProfile:
    """Robustness profile of one plan vs. the best of the map's plans."""
    quotient = quotient_for(mapdata, plan_id)
    finite = quotient[np.isfinite(quotient)]
    censored = int(np.count_nonzero(~np.isfinite(quotient)))
    worst = float(quotient.max()) if censored == 0 else float("inf")
    geomean = float(np.exp(np.log(finite).mean())) if finite.size else float("inf")
    plan_mask = optimal_mask(mapdata, tol_rel=0.01)[mapdata.plan_index(plan_id)]
    within = {
        factor: float(np.count_nonzero(quotient <= factor)) / quotient.size
        for factor in DEFAULT_FACTORS
    }
    return RobustnessProfile(
        plan_id=plan_id,
        worst_quotient=worst,
        geomean_quotient=geomean,
        optimal_fraction=float(plan_mask.sum()) / plan_mask.size,
        within_factor=within,
        censored_cells=censored,
    )


def summarize_plans(mapdata: MapData) -> list[RobustnessProfile]:
    """Profiles for every plan, most robust (smallest worst-case) first."""
    profiles = [profile_plan(mapdata, plan_id) for plan_id in mapdata.plan_ids]
    profiles.sort(key=lambda profile: (profile.worst_quotient, profile.geomean_quotient))
    return profiles
