"""Absolute and relative robustness maps.

§3.3: "We then plotted the relative performance of each individual plan
compared to the optimal plan at each point in the parameter space.  A
given plan is optimal if its performance is equal to the optimal
performance among all plans, i.e., the quotient of costs is 1."

Censored (budget-aborted) measurements are treated as infinitely slow for
quotients and excluded from the best-plan minimum.
"""

from __future__ import annotations

import numpy as np

from repro.core.mapdata import MapData
from repro.errors import ExperimentError


def lenient_best_times(
    mapdata: MapData, baseline_ids: list[str] | None = None
) -> np.ndarray:
    """Per-cell best over the baseline plans; NaN where fully censored.

    A regret map must tolerate all-censored cells (the regret there is
    undefined, not an error); :func:`best_times` is the strict form.
    """
    data = mapdata if baseline_ids is None else mapdata.subset(baseline_ids)
    all_censored = np.all(np.isnan(data.times), axis=0)
    filled = np.where(np.isnan(data.times), np.inf, data.times)
    return np.where(all_censored, np.nan, filled.min(axis=0))


def best_times(mapdata: MapData, plan_ids: list[str] | None = None) -> np.ndarray:
    """Per-cell minimum cost over the chosen plans (NaN-aware).

    Raises if some cell has no uncensored measurement at all.
    """
    best = lenient_best_times(mapdata, plan_ids)
    if np.isnan(best).any():
        hint = (
            "; the map is partial — analyze mapdata.densify() instead"
            if mapdata.is_partial
            else ""
        )
        raise ExperimentError(
            f"some cells have no uncensored measurement{hint}"
        )
    return best


def relative_to_best(mapdata: MapData) -> np.ndarray:
    """Quotient surfaces: plan cost / best cost, shape (P, *grid).

    Censored cells get +inf (the plan is arbitrarily worse than the best).
    """
    best = best_times(mapdata)
    if np.any(best <= 0):
        raise ExperimentError("best time is zero somewhere; cannot form quotients")
    quotients = mapdata.times / best
    return np.where(np.isnan(mapdata.times), np.inf, quotients)


def quotient_for(
    mapdata: MapData,
    plan_id: str,
    baseline_ids: list[str] | None = None,
) -> np.ndarray:
    """One plan's quotient surface vs. the best of ``baseline_ids``."""
    best = best_times(mapdata, baseline_ids)
    times = mapdata.times_for(plan_id)
    quotient = times / best
    return np.where(np.isnan(times), np.inf, quotient)


def censored_to_nan(quotients: np.ndarray) -> np.ndarray:
    """Quotient surfaces with the censored ``+inf`` cells as NaN.

    The form the renderers draw (NaN cells are white, NaN points break a
    curve) and the NaN-aware reductions read.
    """
    return np.where(np.isinf(quotients), np.nan, quotients)
