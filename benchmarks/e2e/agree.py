"""Do two result sets agree?  ``run.py --agree A.json B.json``.

A is the earlier set (the parent commit, or a first run of this one), B
the later.  Every (workload, metric) row gets one verdict:

* end-to-end metrics are held to their bound in BENCHMARK.json.
  ``regressed``: B's median is worse than A's by more than the bound.
  ``unresolved``: not regressed, but the spread between either side's
  own runs (quartile distance over median) is wider than the bound, so
  "unchanged" cannot be told from noise — unless every run of B reads
  better than every run of A.  ``unchanged`` otherwise.
* exact per-layer counts must be equal, or the row is ``regressed``: a
  change that only speeds the host up may not move a simulated number.
* other per-layer metrics have no bound; a row is printed, without a
  verdict, when its median moved by more than a quarter.

The factor follows ``core.regression.compare_maps``: worse/better as a
quotient with its base stated (B over A for lower-is-better), zero before
and non-zero after is infinite, zero on both sides is 1.  The exit code
is non-zero when any row regressed or a request failed in either set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import common
from traced import EXACT


def worse_factor(before: float, after: float, better: str) -> float:
    """How many times worse ``after`` is than ``before`` (1.0: equal)."""
    if better == "higher":
        before, after = after, before
    if before == 0.0:
        return math.inf if after > 0.0 else 1.0
    return after / before


def spread(entry: dict) -> float:
    """Quartile distance over the median; 0 for a single run."""
    if "q1" not in entry or not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def separated(a: dict, b: dict, better: str) -> bool:
    """Every run of B reads better than every run of A."""
    if better == "lower":
        return max(b["values"]) < min(a["values"])
    return min(b["values"]) > max(a["values"])


def verdict(a: dict, b: dict, meta: dict) -> tuple[str, float]:
    factor = worse_factor(a["median"], b["median"], meta["better"])
    bound = meta["bound"]
    if factor - 1.0 > bound:
        return "regressed", factor
    noisy = max(spread(a), spread(b)) > bound
    if noisy and not separated(a, b, meta["better"]):
        return "unresolved", factor
    return "unchanged", factor


def agree(a_path: Path, b_path: Path) -> int:
    benchmark = common.load_benchmark()
    bounded = {m["name"]: m for m in benchmark["end_to_end"]}
    layered = {m["name"]: m for m in benchmark["per_layer"]}
    a_set = json.loads(a_path.read_text())
    b_set = json.loads(b_path.read_text())
    counts = {"regressed": 0, "unresolved": 0, "unchanged": 0}
    failed = 0
    print(f"A = {a_path}\nB = {b_path}")
    print(f"{'workload':14s} {'metric':44s} {'A median':>14s} {'B median':>14s} {'B worse by':>11s}  verdict")
    for workload in sorted(set(a_set["results"]) & set(b_set["results"])):
        a_res, b_res = a_set["results"][workload], b_set["results"][workload]
        failed += sum(run["failed"] for run in a_res["runs"] + b_res["runs"])
        for metric, a in a_res["summary"].items():
            b = b_res["summary"].get(metric)
            if b is None:
                continue
            if metric in bounded:
                word, factor = verdict(a, b, bounded[metric])
                note = (
                    f"{word} (bound {bounded[metric]['bound']:.0%}, spread "
                    f"A {spread(a):.1%} B {spread(b):.1%})"
                )
            elif metric in EXACT:
                factor = worse_factor(a["median"], b["median"], "lower")
                word = "unchanged" if a["values"] == b["values"] else "regressed"
                note = f"{word} (exact count)"
            else:
                factor = worse_factor(
                    a["median"], b["median"], layered[metric]["better"]
                )
                word, note = "", "no bound"
            if word:
                counts[word] += 1
            moved = word == "regressed" or abs(factor - 1.0) > 0.25
            if metric in bounded or moved:
                print(
                    f"{workload:14s} {metric:44s} {a['median']:14.6g} "
                    f"{b['median']:14.6g} {factor - 1.0:+11.1%}  {note}"
                )
    print(
        f"{counts['regressed']} regressed, {counts['unresolved']} unresolved, "
        f"{counts['unchanged']} unchanged; {failed} failed requests "
        "(per-layer rows are listed only when they moved by more than 25%)"
    )
    return 1 if counts["regressed"] or failed else 0
