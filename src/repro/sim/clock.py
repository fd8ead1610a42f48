"""Virtual clock used for all cost accounting.

Every device model and operator charges time against a single
:class:`SimClock`, so an experiment's "measured" elapsed time is simply the
clock delta around plan execution.  Virtual time is deterministic: the same
plan over the same data always measures the same cost.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError


class SimClock:
    """A monotonically advancing virtual clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds since clock creation."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ExecutionError(f"cannot advance clock by negative time {seconds!r}")
        self._now += seconds

    def advance_many(self, amounts: "np.ndarray") -> None:
        """Advance by every amount in sequence, in one vectorized step.

        Bit-identical to ``for a in amounts: clock.advance(a)``: float
        addition is not associative, so the equivalence relies on
        ``np.add.accumulate`` performing a strictly sequential
        left-to-right accumulation (unlike ``np.sum``, which may use
        pairwise summation).  Seeding the accumulation with the current
        clock value reproduces the exact rounding of the incremental
        ``+=`` sequence.
        """
        amounts = np.asarray(amounts, dtype=np.float64).ravel()
        if amounts.size == 0:
            return
        if np.any(amounts < 0):
            raise ExecutionError("cannot advance clock by negative time")
        self._now = float(
            np.add.accumulate(np.concatenate(((self._now,), amounts)))[-1]
        )

    def reset(self) -> None:
        """Rewind to zero (a fresh measurement epoch).

        Elapsed times are float differences, so their low-order bits
        depend on the *absolute* clock value; rewinding at every cold
        reset makes a measurement bit-identical regardless of how much
        virtual time earlier measurements accumulated.
        """
        self._now = 0.0

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}s)"


class Stopwatch:
    """Measures elapsed virtual time across a region of execution.

    Usage::

        watch = Stopwatch(clock)
        with watch:
            run_plan(...)
        elapsed = watch.elapsed
    """

    __slots__ = ("_clock", "_start", "elapsed")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is None:  # pragma: no cover - defensive
            raise ExecutionError("stopwatch exited without entering")
        self.elapsed = self._clock.now - self._start
        self._start = None
