"""Scaled TPC-H-like ``lineitem`` table.

The paper's experiments select from TPC-H line items (~60M rows).  We
build a structurally equivalent table at configurable scale: the two
high-cardinality columns ``partkey`` and ``extendedprice`` serve as the
swept predicate columns (fine-grained selectivity control down to 2^-16),
``suppkey`` is the projected column of the single-predicate query, and the
remaining columns give rows a realistic ~100-byte width so that page-level
mechanics (rows per page, pages per fetch) scale like the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
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


def lineitem_columns(config: LineitemConfig) -> dict[str, np.ndarray]:
    """Generate the raw column arrays (no storage involved)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_rows
    columns: dict[str, np.ndarray] = {
        "partkey": uniform_column(rng, n, PARTKEY_DOMAIN),
        "extendedprice": uniform_column(rng, n, EXTENDEDPRICE_DOMAIN),
    }
    generators = {
        "orderkey": lambda: sequential_column(n),
        "suppkey": lambda: uniform_column(rng, n, SUPPKEY_DOMAIN),
        "quantity": lambda: uniform_column(rng, n, QUANTITY_DOMAIN) + 1,
        "discount": lambda: uniform_column(rng, n, DISCOUNT_DOMAIN),
        "tax": lambda: uniform_column(rng, n, TAX_DOMAIN),
        "shipdate": lambda: uniform_column(rng, n, DATE_DOMAIN),
        "receiptdate": lambda: uniform_column(rng, n, DATE_DOMAIN),
    }
    for name in config.extra_columns:
        if name not in generators:
            raise WorkloadError(f"unknown lineitem column {name!r}")
        columns[name] = generators[name]()
    return columns


def build_lineitem(
    env: StorageEnv,
    config: LineitemConfig | None = None,
    columns: dict[str, np.ndarray] | None = None,
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
