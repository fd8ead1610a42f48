"""The compile-time optimizer: estimates, cost model, plan choice.

The measurement engine deliberately runs *forced* plans; this package
models the optimizer that would have chosen them.  It exists to
reproduce the paper's payoff analysis — where on a robustness map the
plan an optimizer picks diverges from the measured-best plan, and by how
much — under controlled cardinality estimation error:

* :mod:`estimation` — true cardinalities perturbed by a deterministic,
  seedable multiplicative q-error model.
* :mod:`cost_model` — prices :class:`~repro.executor.plans.PlanNode`
  trees from estimates plus the device profile: System A's
  single-predicate inventory, the ``estimation`` map's candidates.
* :mod:`chooser` — selection policies: classic
  (:class:`MinEstimatedCost`) and robust (:class:`MinWorstRegret`,
  :class:`PenaltyAware`), the latter evaluating an uncertainty box
  around the estimate à la PARQO.

The derived *choice maps* and *regret maps* these enable live in
:mod:`repro.core.choice`.
"""

from repro.optimizer.estimation import (
    CardinalityEstimator,
    Estimate,
    EstimationError,
    quantity_of,
)
from repro.optimizer.cost_model import CostModel
from repro.optimizer.chooser import (
    STANDARD_POLICIES,
    MinEstimatedCost,
    MinWorstRegret,
    PenaltyAware,
    PlanChooser,
    SelectionPolicy,
    box_samples,
)

__all__ = [
    "CardinalityEstimator",
    "Estimate",
    "EstimationError",
    "quantity_of",
    "CostModel",
    "PlanChooser",
    "SelectionPolicy",
    "MinEstimatedCost",
    "MinWorstRegret",
    "PenaltyAware",
    "STANDARD_POLICIES",
    "box_samples",
]
