"""External sort with pluggable spill policy.

The paper's §4 predicts that "some implementations of sorting spill their
entire input to disk if the input size exceeds the memory size by merely a
single record.  Those sort implementations lacking graceful degradation
will show discontinuous execution costs."  Both behaviours are implemented
here so the extension benches can draw exactly that robustness map:

* :attr:`SpillPolicy.ALL_OR_NOTHING` — once the input exceeds the memory
  grant, the *whole* input is written out as sorted runs and merged back
  (the discontinuous cliff).
* :attr:`SpillPolicy.GRACEFUL` — the first memory-full of rows stays in
  memory; only the overflow is spilled (cost grows smoothly from the
  in-memory cost).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.executor.context import ExecContext
from repro.obs.tracer import trace_op


class SpillPolicy(Enum):
    """How a sort behaves when its input exceeds workspace memory."""

    GRACEFUL = "graceful"
    ALL_OR_NOTHING = "all-or-nothing"


class SortResult:
    """Sorted values plus the physical footprint of producing them.

    The sorted array materializes lazily on first access: all virtual
    charges happen during :meth:`ExternalSort.sort`, so a measurement
    loop that only reads the clock never pays the real ``np.sort``.
    """

    __slots__ = ("_values", "_values_fn", "spilled_rows", "n_runs")

    def __init__(
        self,
        values: np.ndarray | None,
        spilled_rows: int,
        n_runs: int,
        values_fn: Callable[[], np.ndarray] | None = None,
    ) -> None:
        self._values = values
        self._values_fn = values_fn
        self.spilled_rows = spilled_rows
        self.n_runs = n_runs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            assert self._values_fn is not None
            self._values = self._values_fn()
            self._values_fn = None
        return self._values


class ExternalSort:
    """Sorts one NumPy array, charging CPU and spill I/O."""

    def __init__(
        self,
        ctx: ExecContext,
        row_bytes: int = 8,
        policy: SpillPolicy = SpillPolicy.GRACEFUL,
    ) -> None:
        if row_bytes <= 0:
            raise ExecutionError(f"row_bytes must be positive, got {row_bytes}")
        self.ctx = ctx
        self.row_bytes = row_bytes
        self.policy = policy

    def _memory_rows(self) -> int:
        return max(2, self.ctx.broker.available_bytes // self.row_bytes)

    def sort(self, values: np.ndarray) -> SortResult:
        """Sort ascending; spills according to the policy when needed."""
        ctx = self.ctx
        values = np.asarray(values)
        n_rows = int(values.size)
        memory_rows = self._memory_rows()
        if n_rows <= memory_rows:
            with ctx.broker.grant(n_rows * self.row_bytes):
                ctx.charge_sort_cpu(n_rows)
            return SortResult(
                None, spilled_rows=0, n_runs=1, values_fn=lambda: np.sort(values)
            )
        if self.policy is SpillPolicy.ALL_OR_NOTHING:
            spilled_rows = n_rows
        else:
            spilled_rows = n_rows - memory_rows
        n_runs = self._spill_and_merge(n_rows, spilled_rows, memory_rows)
        return SortResult(
            None,
            spilled_rows=spilled_rows,
            n_runs=n_runs,
            values_fn=lambda: np.sort(values),
        )

    def _spill_and_merge(
        self, n_rows: int, spilled_rows: int, memory_rows: int
    ) -> int:
        """Charge run generation and a multiway merge; returns run count."""
        ctx = self.ctx
        # The spill path works out of a memory_rows workspace (one
        # memory-full per generated run, the same buffers during the
        # merge), so it must hold a broker grant just like the in-memory
        # path does; min() covers the max(2, ...) clamp of _memory_rows.
        workspace_bytes = min(
            memory_rows * self.row_bytes, ctx.broker.available_bytes
        )
        with ctx.broker.grant(workspace_bytes):
            with trace_op(ctx, "sort:run-generation", "sort"):
                # Run generation: sort each memory-full and write it out.
                n_runs = max(1, math.ceil(spilled_rows / memory_rows))
                runs = []
                remaining = spilled_rows
                for _ in range(n_runs):
                    run_rows = min(memory_rows, remaining)
                    remaining -= run_rows
                    ctx.charge_sort_cpu(run_rows)
                    runs.append(ctx.temp.write_run(run_rows, self.row_bytes))
                # The in-memory portion (graceful only) is sorted as its
                # own run.
                in_memory_rows = n_rows - spilled_rows
                if in_memory_rows:
                    ctx.charge_sort_cpu(in_memory_rows)
            with trace_op(ctx, "sort:merge", "sort"):
                # Merge: stream every spilled run back (alternating between
                # runs costs positioning per switch) and merge-compare all
                # rows.
                merge_ways = n_runs + (1 if in_memory_rows else 0)
                page_quantum = max(1, memory_rows // max(1, merge_ways) // 64)
                # The whole round-robin read schedule is deterministic, so
                # it is charged in one vectorized step; one budget check
                # stands for one per round (equivalent under the
                # budget-censoring contract).
                ctx.temp.merge_read_all(runs, page_quantum)
                ctx.check_budget()
                if merge_ways > 1:
                    comparisons = n_rows * math.log2(merge_ways)
                    ctx.clock.advance(comparisons * ctx.profile.cpu_compare)
                ctx.check_budget()
        return n_runs
