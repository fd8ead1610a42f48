"""Execution context: devices + memory + cost budget for one plan run.

The cost budget reproduces the paper's pragmatic truncation: in Fig 1 the
traditional index scan "is not even shown across the entire range" because
its cost explodes.  A plan that exceeds its budget aborts with
:class:`CostBudgetExceeded` and the sweep records a censored measurement.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.executor.memory import MemoryBroker
from repro.sim.profile import DeviceProfile
from repro.storage.env import StorageEnv


class CostBudgetExceeded(ExecutionError):
    """A plan's virtual cost crossed the per-measurement budget."""

    def __init__(self, budget_seconds: float, spent_seconds: float) -> None:
        super().__init__(
            f"plan exceeded its cost budget: spent {spent_seconds:.3f}s "
            f"of {budget_seconds:.3f}s"
        )
        self.budget_seconds = budget_seconds
        self.spent_seconds = spent_seconds


class ExecContext:
    """Everything an operator needs while executing one plan."""

    def __init__(
        self,
        env: StorageEnv,
        memory_bytes: int | None = None,
        budget_seconds: float | None = None,
    ) -> None:
        self.env = env
        self.broker = MemoryBroker(
            memory_bytes if memory_bytes is not None else env.profile.memory_bytes
        )
        self.budget_seconds = budget_seconds
        self._budget_start = env.clock.now

    @property
    def profile(self) -> DeviceProfile:
        return self.env.profile

    @property
    def clock(self):
        return self.env.clock

    @property
    def disk(self):
        return self.env.disk

    @property
    def pool(self):
        return self.env.pool

    @property
    def temp(self):
        return self.env.temp

    def arm_budget(self) -> None:
        """Start the budget window at the current clock (PlanRunner calls this)."""
        self._budget_start = self.env.clock.now

    def charge(self, n_items: int, seconds_per_item: float) -> None:
        """Charge uniform CPU cost for ``n_items`` operations."""
        self.env.charge_cpu(n_items, seconds_per_item)

    def charge_many(self, counts, unit_costs) -> None:
        """Charge ``counts[i] * unit_costs[i]`` for every i, vectorized.

        Bit-identical to ``for n, c in zip(counts, unit_costs):
        self.charge(n, c)``: the per-item products are the same IEEE
        double multiplications the loop would perform, and
        :meth:`SimClock.advance_many` accumulates them in the same
        left-to-right order.  (Zero counts contribute an exact ``+0.0``,
        which never changes a non-negative clock value, so they need no
        special-casing.)
        """
        counts = np.asarray(counts, dtype=np.float64).ravel()
        unit_costs = np.asarray(unit_costs, dtype=np.float64).ravel()
        if counts.shape != unit_costs.shape:
            raise ExecutionError(
                f"charge_many needs aligned arrays, got {counts.size} counts "
                f"for {unit_costs.size} unit costs"
            )
        self.env.clock.advance_many(counts * unit_costs)

    def charge_sort_cpu(self, n_items: int) -> None:
        """Charge comparison cost for sorting ``n_items`` (n log2 n)."""
        if n_items > 1:
            import math

            comparisons = n_items * math.log2(n_items)
            self.env.clock.advance(comparisons * self.profile.cpu_compare)

    def check_budget(self) -> None:
        """Abort the plan if it has exceeded its cost budget."""
        if self.budget_seconds is None:
            return
        spent = self.env.clock.now - self._budget_start
        if spent > self.budget_seconds:
            raise CostBudgetExceeded(self.budget_seconds, spent)

    def check_budget_every(self, done: int, stride: int) -> None:
        """Budget check for per-item loops: fires every ``stride`` items.

        Call with the zero-based index of the item just completed; the
        budget is actually checked after items ``stride-1``,
        ``2*stride-1``, ... — one check per ``stride`` completed items,
        replacing the ad-hoc ``done % STRIDE == STRIDE - 1`` idiom.

        Budget-censoring contract: a measurement that exceeds its budget
        is recorded as *censored* (aborted, time = NaN in the maps), and
        the environment is cold-reset before the next measurement, so any
        virtual time charged between crossing the budget and noticing it
        is unobservable.  Operators are therefore free to check the
        budget at any frequency — per item, every ``stride`` items, or
        once after a whole vectorized batch — without changing any
        non-censored measurement or which measurements are censored.
        Checking less often only trades a little extra (discarded)
        simulation work for faster batches.
        """
        if self.budget_seconds is None or stride <= 0:
            return
        if done % stride == stride - 1:
            self.check_budget()
