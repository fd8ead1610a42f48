"""Plan-choice maps and regret maps: the optimizer's payoff analysis.

A robustness map answers "how does each plan behave"; these derived maps
answer "how does the *chosen* plan behave".  Over a measured
:class:`~repro.core.mapdata.MapData`:

* a **choice map** records, per grid cell, which plan a selection policy
  picks when fed that cell's (possibly misestimated) cardinalities — a
  categorical surface whose region boundaries are the optimizer's
  decision boundaries;
* a **regret map** records the chosen plan's measured cost divided by
  the measured-best cost at the cell — factor 1 where the optimizer
  agreed with the measurements, +inf where it picked a censored plan.

Both live in one :class:`ChoiceMap`, which serializes like
:class:`~repro.core.mapdata.MapData` (JSON, NaN as None) so benches can
cache and golden-test it.  Construction is N-D-safe (any grid rank) and
``measured_mask``-aware: on densified maps the original coverage rides
along in ``meta["measured_cells"]``, so consumers can tell regrets at
measured cells from regrets at interpolated ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.mapdata import (
    MapAxis,
    MapData,
    floats_from_json,
    floats_to_json,
)
from repro.core.maps import lenient_best_times
from repro.errors import ExperimentError


@dataclass
class ChoiceMap:
    """One policy's per-cell plan choices and their measured regret."""

    policy: str
    plan_ids: list[str]
    choices: np.ndarray
    """Indices into ``plan_ids``, shape (*grid,), dtype int."""

    regret: np.ndarray
    """Chosen measured cost / best measured cost, shape (*grid,).
    +inf where the chosen plan was censored; NaN where no plan has an
    uncensored measurement (regret undefined)."""

    axes: list[MapAxis]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.choices = np.asarray(self.choices, dtype=np.int64)
        self.regret = np.asarray(self.regret, dtype=float)
        if self.choices.shape != self.regret.shape:
            raise ExperimentError("choices and regret shapes differ")
        if len(self.axes) != self.choices.ndim:
            raise ExperimentError(
                f"{len(self.axes)} axes for a {self.choices.ndim}-D grid"
            )
        for dim, axis in enumerate(self.axes):
            if axis.n_points != self.choices.shape[dim]:
                raise ExperimentError(
                    f"axis {axis.name!r} has {axis.n_points} points but "
                    f"grid dimension {dim} has {self.choices.shape[dim]}"
                )
        if self.choices.size and (
            self.choices.min() < 0
            or self.choices.max() >= len(self.plan_ids)
        ):
            raise ExperimentError("choice index out of plan_ids range")

    # ------------------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.choices.shape

    @property
    def is_2d(self) -> bool:
        return self.choices.ndim == 2

    def worst_regret(self, where: np.ndarray | None = None) -> float:
        """Largest finite-or-inf regret (NaN cells excluded)."""
        regret = self.regret if where is None else self.regret[where]
        finite_or_inf = regret[~np.isnan(regret)]
        if finite_or_inf.size == 0:
            raise ExperimentError("regret is undefined on every cell")
        return float(np.max(finite_or_inf))

    def mean_regret(self, where: np.ndarray | None = None) -> float:
        """Mean regret over cells where it is defined and finite."""
        regret = self.regret if where is None else self.regret[where]
        finite = regret[np.isfinite(regret)]
        if finite.size == 0:
            raise ExperimentError("regret is not finite on any cell")
        return float(finite.mean())

    # ------------------------------------------------------------------
    # serialization (same conventions as MapData)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "plan_ids": self.plan_ids,
            "choices": self.choices.tolist(),
            "regret": floats_to_json(self.regret),
            "axes": [axis.to_dict() for axis in self.axes],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChoiceMap":
        return cls(
            policy=str(data["policy"]),
            plan_ids=list(data["plan_ids"]),
            choices=np.asarray(data["choices"], dtype=np.int64),
            regret=floats_from_json(data["regret"]),
            axes=[MapAxis.from_dict(axis) for axis in data["axes"]],
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "ChoiceMap":
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_choice_map(
    mapdata: MapData,
    policy_name: str,
    choose: Callable[[tuple[int, ...]], str],
) -> ChoiceMap:
    """Evaluate a per-cell chooser over a measured map.

    ``choose`` maps a grid index tuple to one of the map's plan ids
    (typically a :class:`~repro.optimizer.chooser.PlanChooser` fed that
    cell's perturbed estimates).  Regret is against the best of the map's
    own plans; pass ``mapdata.subset(plan_ids)`` for another baseline.
    The map must be complete — densify partial maps first; the original
    coverage is carried into ``meta["measured_cells"]``.
    """
    if mapdata.is_partial:
        raise ExperimentError(
            "choice maps need a complete grid; densify() the map first"
        )
    shape = mapdata.grid_shape
    best = lenient_best_times(mapdata)
    choices = np.zeros(shape, dtype=np.int64)
    regret = np.full(shape, np.nan)
    for idx in np.ndindex(*shape):
        plan_id = choose(idx)
        p = mapdata.plan_index(plan_id)
        choices[idx] = p
        b = best[idx]
        if np.isnan(b):
            continue  # regret undefined: every plan censored here
        chosen_time = mapdata.times[(p, *idx)]
        regret[idx] = np.inf if np.isnan(chosen_time) else chosen_time / b
    meta = {
        "policy": policy_name,
        "scenario": mapdata.meta.get("scenario"),
    }
    if "measured_cells" in mapdata.meta:
        meta["measured_cells"] = list(mapdata.meta["measured_cells"])
    return ChoiceMap(
        policy=policy_name,
        plan_ids=list(mapdata.plan_ids),
        choices=choices,
        regret=regret,
        axes=list(mapdata.axes),
        meta=meta,
    )
