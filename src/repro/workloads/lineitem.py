"""Scaled TPC-H-like ``lineitem`` table.

The paper's experiments select from TPC-H line items (~60M rows).  We
build a structurally equivalent table at configurable scale: the two
high-cardinality columns ``partkey`` and ``extendedprice`` serve as the
swept predicate columns (fine-grained selectivity control down to 2^-16),
``suppkey`` is the projected column of the single-predicate query, and the
remaining columns give rows a realistic ~100-byte width so that page-level
mechanics (rows per page, pages per fetch) scale like the original.
A table is sized from the columns' dtypes; each column's values are
drawn at its first read (:func:`lineitem_columns`), so a column that
only widens the rows is drawn only when something reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.storage.columns import LazyColumns
from repro.storage.env import StorageEnv
from repro.storage.table import Table
from repro.workloads.generators import sequential_column, uniform_column

#: Domains chosen so every predicate column fits a 31-bit codec budget.
PARTKEY_DOMAIN = 1 << 20
EXTENDEDPRICE_DOMAIN = 1 << 21
SUPPKEY_DOMAIN = 10_000
QUANTITY_DOMAIN = 50
DISCOUNT_DOMAIN = 11
TAX_DOMAIN = 9
DATE_DOMAIN = 2_526  # days in the TPC-H date range


@dataclass(frozen=True)
class LineitemConfig:
    """Parameters for one deterministic lineitem build."""

    n_rows: int = 1 << 17
    seed: int = 42
    extra_columns: tuple[str, ...] = field(
        default=("orderkey", "suppkey", "quantity", "discount", "tax", "shipdate", "receiptdate")
    )

    def __post_init__(self) -> None:
        if self.n_rows <= 0:
            raise WorkloadError(f"n_rows must be positive, got {self.n_rows}")


#: How each column is made, from the generator and the row count.
#: Every generator makes int64 values, so the dtypes are known before a
#: value is drawn.
_GENERATORS = {
    "partkey": lambda rng, n: uniform_column(rng, n, PARTKEY_DOMAIN),
    "extendedprice": lambda rng, n: uniform_column(rng, n, EXTENDEDPRICE_DOMAIN),
    "orderkey": lambda rng, n: sequential_column(n),
    "suppkey": lambda rng, n: uniform_column(rng, n, SUPPKEY_DOMAIN),
    "quantity": lambda rng, n: uniform_column(rng, n, QUANTITY_DOMAIN) + 1,
    "discount": lambda rng, n: uniform_column(rng, n, DISCOUNT_DOMAIN),
    "tax": lambda rng, n: uniform_column(rng, n, TAX_DOMAIN),
    "shipdate": lambda rng, n: uniform_column(rng, n, DATE_DOMAIN),
    "receiptdate": lambda rng, n: uniform_column(rng, n, DATE_DOMAIN),
}

#: The one column whose generator draws nothing from the RNG.
_NO_RNG = frozenset({"orderkey"})


class _LineitemColumns(LazyColumns):
    """The columns of one config, each drawn at its first read.

    The RNG's draws are the columns in table order (``partkey``,
    ``extendedprice``, then the config's extra columns), so reading a
    column draws every RNG column before it that is not drawn yet: a
    column's values never depend on which columns were read first.
    """

    def __init__(self, config: LineitemConfig) -> None:
        names = ("partkey", "extendedprice", *config.extra_columns)
        for name in config.extra_columns:
            if name not in _GENERATORS or names.count(name) > 1:
                raise WorkloadError(f"unknown or repeated lineitem column {name!r}")
        super().__init__(config.n_rows, dict.fromkeys(names, np.int64))
        self._rng = np.random.default_rng(config.seed)
        self._rng_order = [name for name in names if name not in _NO_RNG]

    def _draw(self, name: str) -> dict[str, np.ndarray]:
        if name in _NO_RNG:
            return {name: _GENERATORS[name](self._rng, self.n_rows)}
        made: dict[str, np.ndarray] = {}
        for column in self._rng_order[: self._rng_order.index(name) + 1]:
            if column not in self._values:
                made[column] = _GENERATORS[column](self._rng, self.n_rows)
        return made


def lineitem_columns(config: LineitemConfig) -> LazyColumns:
    """The raw column arrays (no storage involved), each drawn on first read.

    A read-only mapping: the row count and dtypes are known at once, and
    a column's values are generated the first time it is read, once,
    under a lock, always in the generator's order, so the values are
    those of a build that drew every column up front.  Several tables
    built over one mapping share its arrays.
    """
    return _LineitemColumns(config)


def build_lineitem(
    env: StorageEnv,
    config: LineitemConfig | None = None,
    columns: Mapping[str, np.ndarray] | None = None,
) -> Table:
    """Build (or re-host) the lineitem table in the given environment.

    Passing pre-generated ``columns`` lets several systems host an
    identical copy of the data in their own environments, exactly as the
    paper loaded one dataset into three database systems.
    """
    config = config or LineitemConfig()
    if columns is None:
        columns = lineitem_columns(config)
    return Table(env, "lineitem", columns)
