"""Wall-clock benchmark: serial vs parallel two-predicate sweep.

Runs the full three-system 2-D sweep once serially and once through the
parallel engine, verifies the maps are bit-identical, and writes a
``BENCH_parallel_sweep.json`` artifact with the timings so CI can track
the perf trajectory.

With ``--sweep-cache-out`` it additionally benchmarks the
content-addressed per-cell measurement store (``repro.core.cellstore``):
a cold sweep populating a fresh store, a warm rerun (asserted
bit-identical and 100% store hits, gated by ``--require-warm-speedup``),
and a doubled-resolution rerun whose overlapping cells — every cell of
the coarse grid — are asserted to hit.  Results land in
``BENCH_sweep_cache.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_sweep.py \
        [--rows 131072] [--min-exp -12] [--workers 4] [--out BENCH_parallel_sweep.json]
        [--require-speedup 2.0] [--sweep-cache-out BENCH_sweep_cache.json]
        [--require-warm-speedup 20] [--cache-only]

``--require-speedup`` exits non-zero below the threshold, but only when
the machine actually has at least ``--workers`` cores — a 1-core CI box
cannot show a parallel speedup and should not fail for it.  The warm-run
gate has no such escape hatch: loading cells from the store must beat
re-measuring them on any machine.  ``--cache-only`` skips the
serial-vs-parallel section (for a dedicated CI cache-smoke step).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.core.cellstore import CellStore
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space2D
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import TwoPredicateScenario
from repro.systems import SystemConfig, build_three_systems
from repro.workloads import LineitemConfig


def build_systems(n_rows: int, seed: int):
    return list(
        build_three_systems(
            SystemConfig(lineitem=LineitemConfig(n_rows=n_rows, seed=seed))
        ).values()
    )


def identical(a, b) -> bool:
    return (
        a.plan_ids == b.plan_ids
        and np.array_equal(a.times, b.times, equal_nan=True)
        and np.array_equal(a.aborted, b.aborted)
        and np.array_equal(a.rows, b.rows)
        and a.meta == b.meta
    )


def bench_cell_store(args, factory) -> tuple[dict, list[str]]:
    """Cold / warm / overlap-grid timings through the cell store.

    Unjittered on purpose: jittered measurements are keyed to their grid
    position, so only the unjittered path can demonstrate cross-
    resolution reuse.
    """
    systems = factory()

    def sweep(space, store):
        scenario = TwoPredicateScenario(systems, space)
        engine = RobustnessSweep(
            systems, budget_seconds=30.0, cell_store=store
        )
        start = time.perf_counter()
        mapdata = engine.sweep(scenario)
        return mapdata, time.perf_counter() - start

    coarse = Space2D.log2("sel_a", "sel_b", args.min_exp, 0)
    fine = Space2D.log2("sel_a", "sel_b", args.min_exp, 0, per_octave=2)
    n_coarse = int(np.prod(coarse.shape))
    n_fine = int(np.prod(fine.shape))
    failures: list[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        cold_map, cold_s = sweep(coarse, CellStore(tmp))
        print(f"cache cold ({coarse.shape[0]}x{coarse.shape[1]}): {cold_s:8.2f}s")

        warm_store = CellStore(tmp)
        warm_map, warm_s = sweep(coarse, warm_store)
        warm_speedup = cold_s / warm_s if warm_s else float("inf")
        print(f"cache warm: {warm_s:8.4f}s  ({warm_speedup:.1f}x)")
        warm_identical = identical(cold_map, warm_map)
        warm_hit_rate = warm_store.stats()["hit_rate"]
        if not warm_identical:
            failures.append("warm map differs from cold map")
        if warm_store.cell_misses:
            failures.append(
                f"warm rerun missed {warm_store.cell_misses} cells "
                "(expected 100% hit rate)"
            )

        with tempfile.TemporaryDirectory() as tmp2:
            fine_cold_map, fine_cold_s = sweep(fine, CellStore(tmp2))
        print(
            f"cache cold ({fine.shape[0]}x{fine.shape[1]}): {fine_cold_s:8.2f}s"
        )
        overlap_store = CellStore(tmp)
        overlap_map, overlap_s = sweep(fine, overlap_store)
        overlap_speedup = fine_cold_s / overlap_s if overlap_s else float("inf")
        print(
            f"cache overlap ({fine.shape[0]}x{fine.shape[1]} from "
            f"{coarse.shape[0]}x{coarse.shape[1]}): {overlap_s:8.2f}s "
            f"({overlap_speedup:.1f}x, {overlap_store.cell_hits} cells reused)"
        )
        if overlap_store.cell_hits != n_coarse:
            failures.append(
                f"overlap rerun reused {overlap_store.cell_hits} cells, "
                f"expected every coarse cell ({n_coarse})"
            )
        if not identical(fine_cold_map, overlap_map):
            failures.append("overlap map differs from a cold fine-grid map")

    if args.require_warm_speedup is not None and (
        warm_speedup < args.require_warm_speedup
    ):
        failures.append(
            f"warm speedup {warm_speedup:.1f}x < required "
            f"{args.require_warm_speedup:.1f}x"
        )

    payload = {
        "bench": "sweep_cell_store",
        "rows": args.rows,
        "coarse_grid": list(coarse.shape),
        "fine_grid": list(fine.shape),
        "n_plans": len(cold_map.plan_ids),
        "platform": platform.platform(),
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 4),
        "warm_hit_rate": warm_hit_rate,
        "warm_bit_identical": warm_identical,
        "fine_cold_seconds": round(fine_cold_s, 4),
        "overlap_seconds": round(overlap_s, 4),
        "overlap_speedup": round(overlap_speedup, 4),
        "overlap_cells_reused": overlap_store.cell_hits,
        "overlap_cells_expected": n_coarse,
        "fine_cells_total": n_fine,
    }
    return payload, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1 << 17)
    parser.add_argument("--min-exp", type=int, default=-12)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="BENCH_parallel_sweep.json")
    parser.add_argument("--require-speedup", type=float, default=None)
    parser.add_argument(
        "--sweep-cache-out",
        default=None,
        metavar="PATH",
        help="also benchmark the per-cell measurement store "
        "(cold/warm/overlap-grid) and write the results here",
    )
    parser.add_argument(
        "--require-warm-speedup",
        type=float,
        default=None,
        help="exit non-zero when the store-warm rerun is not at least "
        "this many times faster than the cold sweep",
    )
    parser.add_argument(
        "--cache-only",
        action="store_true",
        help="skip the serial-vs-parallel section (cache bench only)",
    )
    args = parser.parse_args(argv)
    if args.cache_only and args.sweep_cache_out is None:
        parser.error("--cache-only needs --sweep-cache-out")

    factory = functools.partial(build_systems, args.rows, args.seed)

    if args.sweep_cache_out is not None:
        cache_payload, cache_failures = bench_cell_store(args, factory)
        with open(args.sweep_cache_out, "w") as fh:
            json.dump(cache_payload, fh, indent=2)
        print(f"wrote {args.sweep_cache_out}")
        for failure in cache_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if cache_failures:
            return 1
        if args.cache_only:
            return 0

    space = Space2D.log2("sel_a", "sel_b", args.min_exp, 0)
    jitter = Jitter(rel=0.01, abs=0.0005, seed=args.seed)
    print(
        f"2-D sweep: {space.shape[0]}x{space.shape[1]} cells, "
        f"{args.rows} rows, {args.workers} workers "
        f"(cpu_count={os.cpu_count()})"
    )

    start = time.perf_counter()
    serial_map = TwoPredicateScenario(factory(), space).run(
        budget_seconds=30.0, jitter=jitter
    )
    serial_s = time.perf_counter() - start
    print(f"serial:   {serial_s:8.2f}s")

    start = time.perf_counter()
    parallel_map = ParallelSweep(
        factory, budget_seconds=30.0, jitter=jitter, n_workers=args.workers
    ).sweep(TwoPredicateScenario.build_spec(space.x, space.y))
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(f"parallel: {parallel_s:8.2f}s  ({speedup:.2f}x)")

    bit_identical = identical(serial_map, parallel_map)
    print(f"bit-identical: {bit_identical}")

    payload = {
        "bench": "parallel_sweep_2d",
        "rows": args.rows,
        "grid": list(space.shape),
        "n_plans": len(serial_map.plan_ids),
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(speedup, 4),
        "bit_identical": bit_identical,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    if not bit_identical:
        print("FAIL: parallel map differs from serial map", file=sys.stderr)
        return 1
    cores = os.cpu_count() or 1
    if args.require_speedup is not None:
        if cores < args.workers:
            print(
                f"skipping speedup gate: {cores} cores < {args.workers} workers"
            )
        elif speedup < args.require_speedup:
            print(
                f"FAIL: speedup {speedup:.2f}x < required "
                f"{args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
