"""Paper-vs-measured reporting.

Each figure function emits :class:`Claim` rows — one per qualitative
claim the paper makes about that figure — with the measured value next
to the paper's statement.  ``format_claims`` renders the table the CLI
prints.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Claim:
    """One qualitative paper claim and its measured counterpart."""

    claim: str
    paper: str
    measured: str
    holds: bool

    def row(self) -> str:
        status = "OK " if self.holds else "MISS"
        return f"  [{status}] {self.claim}\n         paper: {self.paper}\n         ours : {self.measured}"


def format_claims(title: str, claims: list[Claim]) -> str:
    """Human-readable claim table for one figure."""
    lines = [f"=== {title} ==="]
    for claim in claims:
        lines.append(claim.row())
    n_holds = sum(claim.holds for claim in claims)
    lines.append(f"  -> {n_holds}/{len(claims)} claims hold")
    return "\n".join(lines)


def series_block(title: str, xs, series: dict[str, list[float]]) -> str:
    """Print the numeric series behind a 1-D figure (paper-style rows)."""
    lines = [f"--- {title} ---", "selectivity: " + " ".join(f"{x:.2e}" for x in xs)]
    for label, values in series.items():
        rendered = " ".join(
            "   nan  " if v != v else f"{v:8.4f}" for v in values
        )
        lines.append(f"{label:>24s}: {rendered}")
    return "\n".join(lines)
