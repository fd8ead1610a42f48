"""Benchmark harness: regenerates every figure of the paper's evaluation.

The heavy sweeps are computed once per process (and optionally cached on
disk) and shared by all figure functions; each derives its figure and
reports the paper-vs-measured rows of its qualitative claims.
``repro-figures`` (see :mod:`repro.bench.cli`) renders all artifacts
into a directory.
"""

from repro.bench.harness import BenchConfig, BenchSession
from repro.bench.report import Claim, format_claims

__all__ = [
    "BenchConfig",
    "BenchSession",
    "Claim",
    "format_claims",
]
