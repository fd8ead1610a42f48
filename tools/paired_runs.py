"""Alternating parent/change pairs of the end-to-end benchmark.

Unpacks ``PARENT_REF`` beside this checkout (``git archive`` into a
temporary directory, removed afterwards) and runs
``benchmarks/e2e/run.py --workload W --seed N --out ...`` on the parent
and on this working tree — uncommitted edits included — ``--pairs``
times per workload, alternating which side goes first so slow drift of
the machine falls on both.  One run at a time.

Per workload and end-to-end metric it prints each side's median
[q1, q3], how many pairs the change won, and a verdict by the rule in
``benchmarks/e2e/README.md`` ("Measuring a claim"):

* ``improved``: the change wins at least nine pairs in ten (ties count
  for neither side) and the medians differ by more than the distance
  between the quartiles of the parent's own runs;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: neither, and the spread of either side's runs
  (quartile distance over median) is wider than the bound — unless every
  run of the change reads better than every run of the parent;
* ``within bound`` otherwise.

With ``--record`` every printed row is also appended to the committed
``BENCH_TRAJECTORY.jsonl`` as one JSON object — ``commit`` (``HEAD``,
``+dirty`` when the working tree differs from it), ``parent``,
``workload``, ``metric``, ``pairs``, ``seed``, each side's ``median`` /
``q1`` / ``q3``, ``wins``, ``ties`` and ``verdict`` — so the numbers of a
PR live in the repository as rows of one schema, not in prose.  Rows of
PRs that predate the option were entered from the medians ``CHANGES.md``
states; what it does not state is ``null``.

Nothing under ``benchmarks/e2e/`` is imported or changed; the tool only
calls ``run.py`` and reads the result sets it writes.  The exit code is
non-zero when a row regressed or a request failed on either side.

Usage::

    python tools/paired_runs.py PARENT_REF [--workloads cli_cold,service_warm]
        [--pairs 10] [--seed 2009] [--record]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.jsonl"
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    """One ``run.py`` run in a process of its own; its result record."""
    subprocess.run(
        [
            sys.executable,
            str(checkout / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out),
        ],
        cwd=checkout,
        stdout=subprocess.DEVNULL,
    )
    if not out.is_file():
        raise SystemExit(f"{workload} in {checkout} wrote no result set")
    return json.loads(out.read_text())["results"][workload]["runs"][0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[int, int, str]:
    """(pairs the change won, ties, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # so that lower is better
    a = [sign * value for value in parent]
    b = [sign * value for value in change]
    wins = sum(y < x for x, y in zip(a, b))
    ties = sum(y == x for x, y in zip(a, b))
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if wins >= WIN_SHARE * len(a) and a_med - b_med > a_q3 - a_q1:
        return wins, ties, "improved"
    # Worse by more than the bound: B over A for lower-is-better, A over
    # B for higher (signs cancel in the quotient).
    worse = b_med / a_med if better == "lower" else a_med / b_med
    if worse - 1.0 > bound:
        return wins, ties, "regressed"
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    if spread > bound and not max(b) < min(a):
        return wins, ties, "unresolved"
    return wins, ties, "within bound"


def report(
    runs: dict[str, dict[str, list[dict]]], metrics: list[dict]
) -> tuple[list[dict], int]:
    """Print the table; returns its rows and how many are bad."""
    rows = []
    print(
        f"{'workload':13s} {'metric':19s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'wins':>8s}  verdict"
    )
    bad = 0
    for workload, sides in runs.items():
        for metric in metrics:
            name = metric["name"]
            columns = {
                side: [run["metrics"][name] for run in sides[side]]
                for side in ("parent", "change")
            }
            wins, ties, verdict = judge(
                columns["parent"], columns["change"],
                metric["better"], metric["bound"],
            )
            cells = []
            row = {"workload": workload, "metric": name}
            for side in ("parent", "change"):
                q1, median, q3 = quartiles(columns[side])
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
                row.update(
                    {f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3}
                )
            rows.append(dict(row, wins=wins, ties=ties, verdict=verdict))
            pairs = len(columns["parent"])
            tally = f"{wins}/{pairs}" + (f" ={ties}" if ties else "")
            print(
                f"{workload:13s} {name:19s} {cells[0]:>34s} {cells[1]:>34s} "
                f"{tally:>8s}  {verdict}"
            )
            bad += verdict == "regressed"
        for side in ("parent", "change"):
            failed = sum(run["failed"] for run in sides[side])
            attempted = sum(run["attempted"] for run in sides[side])
            print(f"{workload:13s} {side}: {failed} of {attempted} requests failed")
            bad += failed
    return rows, bad


def git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument(
        "--workloads", default=",".join(known), help="comma-separated names"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed", type=int, default=2009,
        help="workload seed of every run (2009 also checks output digests)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help=f"append the rows to {TRAJECTORY.name}",
    )
    args = parser.parse_args(argv)
    workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"parent": [], "change": []} for workload in workloads
    }
    with tempfile.TemporaryDirectory(prefix="paired-runs-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(
            ["git", "archive", args.parent_ref],
            cwd=ROOT, check=True, stdout=subprocess.PIPE,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        checkouts = {"parent": parent, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = run_once(
                        checkouts[side], workload, args.seed,
                        Path(tmp) / f"{side}-{workload}-{pair}.json",
                    )
                    runs[workload][side].append(run)
                    print(
                        f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                        + " ".join(
                            f"{name}={value:.4g}"
                            for name, value in run["metrics"].items()
                        ),
                        file=sys.stderr,
                    )
    if args.pairs < 10:
        print(f"{args.pairs} pairs: a claim needs at least ten")
    rows, bad = report(runs, benchmark["end_to_end"])
    if args.record:
        stamp = {
            "commit": git("rev-parse", "--short", "HEAD")
            + ("+dirty" if git("status", "--porcelain") else ""),
            "parent": git("rev-parse", "--short", args.parent_ref),
            "pairs": args.pairs,
            "seed": args.seed,
        }
        with TRAJECTORY.open("a") as trajectory:
            for row in rows:
                trajectory.write(json.dumps({**stamp, **row}) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
