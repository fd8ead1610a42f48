"""Plan selection policies: classic and robust.

:class:`MinEstimatedCost` is the textbook optimizer — trust the point
estimate, pick the cheapest plan.  The robust policies evaluate every
candidate across a deterministic *uncertainty box* around the estimate
(every cardinality scaled by 1/u, 1, and u, cross-producted per base
quantity) and hedge:

* :class:`MinWorstRegret` minimizes the worst cost ratio to the
  per-sample best plan anywhere in the box — the minimax-regret selection
  PARQO's penalty analysis formalizes.
* :class:`PenaltyAware` minimizes expected cost plus a weighted expected
  penalty (cost above the per-sample best), trading a bounded premium in
  expected cost for a cap on how wrong the choice can go.

All policies are fully deterministic: box samples are enumerated in
sorted-quantity order and ties break on the lexicographically smallest
plan id.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Mapping

from repro.errors import ExperimentError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.estimation import (
    Estimate,
    cap_factors_at_full_selectivity,
    quantity_of,
)

#: A callback pricing every candidate plan at one estimate point.
CostsAt = Callable[[dict[str, float]], dict[str, float]]


def box_samples(
    values: Mapping[str, float], uncertainty: float
) -> list[dict[str, float]]:
    """Deterministic corner+center samples of the uncertainty box.

    Every base quantity (``rows.b`` and ``sel.b`` move together) is
    scaled by 1/u, 1, and u; the cross product enumerates in sorted
    quantity order.  ``u <= 1`` collapses to the point estimate.
    """
    if uncertainty < 1.0:
        raise ExperimentError(
            f"uncertainty must be >= 1, got {uncertainty}"
        )
    quantities = sorted({quantity_of(key) for key in values})
    if uncertainty == 1.0 or not quantities:
        return [dict(values)]
    scales = (1.0 / uncertainty, 1.0, uncertainty)
    samples = []
    for combo in itertools.product(scales, repeat=len(quantities)):
        factor = dict(zip(quantities, combo))
        cap_factors_at_full_selectivity(factor, values)
        samples.append(
            {
                key: value * factor[quantity_of(key)]
                for key, value in values.items()
            }
        )
    return samples


class SelectionPolicy(ABC):
    """How an optimizer turns candidate costs into one chosen plan."""

    name: str = "?"

    @abstractmethod
    def choose(self, costs_at: CostsAt, estimate: Estimate) -> str:
        """Return the chosen plan id."""


class MinEstimatedCost(SelectionPolicy):
    """The classic optimizer: cheapest plan at the point estimate."""

    name = "min-estimated-cost"

    def choose(self, costs_at: CostsAt, estimate: Estimate) -> str:
        costs = costs_at(dict(estimate.values))
        return min(costs, key=lambda plan_id: (costs[plan_id], plan_id))


class _BoxPolicy(SelectionPolicy):
    """Shared box evaluation for the robust policies.

    The box's half-width is the estimate's own uncertainty (one standard
    deviation of its q-error), so a policy built once adapts to an
    error-magnitude axis.
    """

    def _evaluate(
        self, costs_at: CostsAt, estimate: Estimate
    ) -> tuple[list[dict[str, float]], list[float]]:
        samples = box_samples(estimate.values, estimate.uncertainty)
        per_sample = [costs_at(sample) for sample in samples]
        best = [min(costs.values()) for costs in per_sample]
        return per_sample, best

    @abstractmethod
    def _score(
        self, plan_costs: list[float], best: list[float]
    ) -> float:
        """Scalar score for one plan over the box (lower is better)."""

    def choose(self, costs_at: CostsAt, estimate: Estimate) -> str:
        per_sample, best = self._evaluate(costs_at, estimate)
        plan_ids = sorted(per_sample[0])
        scores = {
            plan_id: self._score(
                [costs[plan_id] for costs in per_sample], best
            )
            for plan_id in plan_ids
        }
        return min(plan_ids, key=lambda plan_id: (scores[plan_id], plan_id))


class MinWorstRegret(_BoxPolicy):
    """Minimize the worst cost ratio to the best plan over the box."""

    name = "min-worst-regret"

    def _score(self, plan_costs: list[float], best: list[float]) -> float:
        return max(
            cost / b if b > 0 else float("inf")
            for cost, b in zip(plan_costs, best)
        )


class PenaltyAware(_BoxPolicy):
    """Minimize expected cost plus expected penalty over the box.

    The penalty is the mean excess over the per-sample best plan
    (PARQO's penalty), weighted equally with the expected cost.
    """

    name = "penalty-aware"

    def _score(self, plan_costs: list[float], best: list[float]) -> float:
        n = len(plan_costs)
        expected = sum(plan_costs) / n
        penalty = sum(c - b for c, b in zip(plan_costs, best)) / n
        return expected + penalty


#: The policies the bench compares, in presentation order.
STANDARD_POLICIES: tuple[type[SelectionPolicy], ...] = (
    MinEstimatedCost,
    MinWorstRegret,
    PenaltyAware,
)


class PlanChooser:
    """One optimizer: a cost model plus a selection policy."""

    def __init__(
        self, model: CostModel, policy: SelectionPolicy | None = None
    ) -> None:
        self.model = model
        self.policy = policy or MinEstimatedCost()

    def choose(
        self,
        plans: Mapping[str, object],
        estimate: Estimate,
        costs: dict | None = None,
    ) -> str:
        """Pick one plan id from the candidate inventory.

        ``costs`` memoizes the candidates' costs by estimate point
        (every quantity's value): choosers with one cost model that
        share it over the same candidates — one cell's policies — price
        each point once between them.  The box's centre sample is the
        point estimate, so the classic policy's point is a box point.
        """
        if not plans:
            raise ExperimentError("cannot choose from an empty plan inventory")
        memo = {} if costs is None else costs

        def costs_at(values: dict[str, float]) -> dict[str, float]:
            point = tuple(sorted(values.items()))
            if point not in memo:
                memo[point] = {
                    plan_id: self.model.cost(plan, values)
                    for plan_id, plan in plans.items()
                }
            return memo[point]

        return self.policy.choose(costs_at, estimate)
