"""Execution context: devices + memory + cost budget for one plan run.

The cost budget reproduces the paper's pragmatic truncation: in Fig 1 the
traditional index scan "is not even shown across the entire range" because
its cost explodes.  A plan that exceeds its budget aborts with
:class:`CostBudgetExceeded` and the sweep records a censored measurement.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

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


_T = TypeVar("_T")


class PayloadMemo:
    """Uncharged host payload shared by the plans that one runner measures.

    Plans of one provider at one cell read the same index ranges and
    derive the same arrays from them: System A's four intersections
    intersect one pair of rid lists, System B's two plans per index
    filter one span, System C's plain and MDAM scans of an index decode
    one span.  What those computations return is memoized here; what
    they *charge* never is, since every plan still makes each of its
    ``ctx.charge``, ``read_scattered``, pool access, grant and budget
    check itself (README's host-payload rule).

    Entries come in two kinds:

    * by value (:meth:`get`): the key is hashable data — an index object
      and integer bounds — that fixes the value;
    * by identity (:meth:`derived`): the key is the identity of input
      arrays, which the entry keeps alive so no other array can take
      their ids while the memo lives.

    A memo belongs to one :class:`~repro.executor.plans.PlanRunner` and
    dies with it, so it holds one cell's payload at most: it is never
    shared between runners, processes or threads.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[Hashable, object] = {}

    def get(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """The value under ``key``, computed by ``compute()`` the first time."""
        entries = self._entries
        if key not in entries:
            entries[key] = compute()
        return entries[key]  # type: ignore[return-value]

    def derived(
        self, name: str, inputs: tuple, compute: Callable[[], _T]
    ) -> _T:
        """``compute()`` of the ``inputs`` objects, once per identity."""
        key = (name, *map(id, inputs))
        entries = self._entries
        if key not in entries:
            entries[key] = (inputs, compute())
        return entries[key][1]  # type: ignore[index]


class ExecContext:
    """Everything an operator needs while executing one plan.

    ``memo`` is the runner's :class:`PayloadMemo`; a context made on its
    own gets a fresh one, so every operator has a single code path.
    """

    def __init__(
        self,
        env: StorageEnv,
        memory_bytes: int | None = None,
        budget_seconds: float | None = None,
        memo: PayloadMemo | None = None,
    ) -> None:
        self.env = env
        self.broker = MemoryBroker(
            memory_bytes if memory_bytes is not None else env.profile.memory_bytes
        )
        self.budget_seconds = budget_seconds
        self._budget_start = env.clock.now
        self.memo = memo if memo is not None else PayloadMemo()

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
        """Abort the plan if it has exceeded its cost budget.

        Budget-censoring contract: a measurement that exceeds its budget
        is recorded as *censored* (aborted, time = NaN in the maps), and
        the environment is cold-reset before the next measurement, so any
        virtual time charged between crossing the budget and noticing it
        is unobservable.  Operators are therefore free to check the
        budget at any frequency — per item, every few hundred items, or
        once after a whole vectorized batch — without changing any
        non-censored measurement or which measurements are censored.
        An operator that batches a loop evaluates the loop's checks at
        once with :meth:`over_budget` and raises here at the first that
        fails, so it aborts where the loop would — the one batched pool
        path, :meth:`~repro.storage.buffer_pool.BufferPool.charge_trace`,
        does so for the naive fetch and the index nested-loop probes.
        """
        if self.budget_seconds is None:
            return
        spent = self.env.clock.now - self._budget_start
        if spent > self.budget_seconds:
            raise CostBudgetExceeded(self.budget_seconds, spent)

    def over_budget(self, clock_values) -> np.ndarray:
        """Vectorized twin of :meth:`check_budget`: for each clock value,
        whether a check made at that clock would raise.

        The same ``(now - start) > budget_seconds`` expression, evaluated
        elementwise, so the first ``True`` is the first check of a loop
        that raises (``now > start + budget`` can round differently).
        """
        budget = np.inf if self.budget_seconds is None else self.budget_seconds
        values = np.asarray(clock_values, dtype=np.float64)
        return (values - self._budget_start) > budget
