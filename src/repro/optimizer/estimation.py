"""Cardinality estimation under a deterministic q-error model.

The paper's premise is that "actual run-time conditions (e.g., actual
selectivities and actual available memory) very often differ from
compile-time estimates".  This module supplies the compile-time side of
that statement: true cardinalities from a workload oracle, perturbed by a
seedable multiplicative error model, so the optimizer subsystem can be
fed estimates that are *wrong by a controlled, reproducible amount*.

The error model is the standard q-error formulation from the cardinality
estimation literature: the estimate of a quantity ``v`` is ``v * q`` with
``ln q ~ N(bias, magnitude^2)``.  Every draw is keyed on a caller-chosen
tuple (typically the sweep cell) through a stable ``blake2s`` digest — the
same trick :class:`~repro.core.runner.Jitter` uses — so estimates are
bit-identical across processes, workers, and cached maps.  The magnitude
only *scales* a cell's standard-normal draw: walking an error-magnitude
axis amplifies one fixed misestimation per cell instead of re-rolling it,
and magnitude 0 reproduces the true values exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ExperimentError


def _standard_normal(seed: int, quantity: str, key: tuple[int, ...]) -> float:
    """One deterministic N(0, 1) draw per (seed, quantity, key)."""
    payload = repr(
        (int(seed), str(quantity), tuple(int(k) for k in key))
    ).encode("utf-8")
    digest = int.from_bytes(
        hashlib.blake2s(payload, digest_size=8).digest(), "big"
    )
    return float(np.random.default_rng(digest).standard_normal())


@dataclass(frozen=True)
class EstimationError:
    """Multiplicative q-error: estimate = true * exp(bias + magnitude*g).

    ``magnitude`` is the standard deviation of ``ln q`` (0 disables the
    error entirely); ``bias`` is its mean, modelling systematic over-
    (positive) or under- (negative) estimation.  ``seed`` makes the whole
    model reproducible.
    """

    magnitude: float = 0.5
    bias: float = 0.0
    seed: int = 2009

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ExperimentError(
                f"error magnitude must be non-negative, got {self.magnitude}"
            )

    def with_magnitude(self, magnitude: float) -> "EstimationError":
        """The same error model at a different magnitude (same draws)."""
        return replace(self, magnitude=float(magnitude))

    def q_factor(self, quantity: str, key: tuple[int, ...]) -> float:
        """The multiplicative factor applied to ``quantity`` at ``key``."""
        g = _standard_normal(self.seed, quantity, key)
        return math.exp(self.bias + self.magnitude * g)


@dataclass(frozen=True)
class Estimate:
    """Estimated cardinalities plus how uncertain they are.

    ``values`` maps quantity keys (``"rows.<column>"``, ``"sel.<column>"``,
    ``"rows.out"``) to estimated values.
    ``uncertainty`` is the multiplicative half-width robust selection
    policies should consider around the estimate (1.0 = trust the point
    estimate); :class:`CardinalityEstimator` sets it to ``exp(magnitude)``,
    one standard deviation of the q-error.
    """

    values: dict[str, float]
    uncertainty: float = 1.0

    def __post_init__(self) -> None:
        if self.uncertainty < 1.0:
            raise ExperimentError(
                f"uncertainty is a multiplicative half-width >= 1, "
                f"got {self.uncertainty}"
            )


def quantity_of(key: str) -> str:
    """The base quantity name of an estimate key.

    ``"rows.b"`` and ``"sel.b"`` describe the same underlying quantity
    (the predicate on column ``b``) — they must be perturbed and box-
    sampled *together*, or an estimate could claim 10% selectivity but
    half the table's rows.
    """
    _kind, _sep, base = key.partition(".")
    if not base:
        raise ExperimentError(
            f"estimate key {key!r} is not of the form '<kind>.<quantity>'"
        )
    return base


class CardinalityEstimator:
    """Turns true cardinalities into deterministic, noisy estimates."""

    def __init__(self, error: EstimationError | None = None) -> None:
        self.error = error or EstimationError()

    def estimate(
        self,
        true_cards: dict[str, float],
        key: tuple[int, ...] = (),
        magnitude: float | None = None,
    ) -> Estimate:
        """Perturb every quantity of ``true_cards`` once, consistently.

        All keys sharing a base quantity (``rows.b`` / ``sel.b``) get the
        same factor; selectivities are clamped to [0, 1] afterwards.
        ``key`` identifies the workload point (the digest key), and
        ``magnitude`` optionally overrides the model's magnitude — the
        hook an error-magnitude sweep axis uses to amplify one fixed
        draw per cell.
        """
        error = self.error
        if magnitude is not None:
            error = error.with_magnitude(magnitude)
        factors = {
            quantity: error.q_factor(quantity, key)
            for quantity in sorted({quantity_of(k) for k in true_cards})
        }
        cap_factors_at_full_selectivity(factors, true_cards)
        values = {
            name: float(true_value) * factors[quantity_of(name)]
            for name, true_value in true_cards.items()
        }
        return Estimate(values, uncertainty=math.exp(error.magnitude))


def cap_factors_at_full_selectivity(
    factors: dict[str, float], values: dict[str, float]
) -> None:
    """Cap each quantity's factor so no selectivity exceeds 1 (in place).

    The cap applies to the *whole* quantity, not just its ``sel.`` key:
    clamping the selectivity alone would leave the paired row count
    inflated past the table — exactly the rows/sel inconsistency
    :func:`quantity_of` exists to prevent.
    """
    for name, value in values.items():
        if name.startswith("sel.") and value > 0:
            quantity = quantity_of(name)
            factors[quantity] = min(factors[quantity], 1.0 / float(value))
