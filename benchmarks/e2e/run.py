"""End-to-end benchmark: map request -> rendered map, cold and warm,
through the CLI and through the HTTP service.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--repeat N] [--out PATH]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --agree A.json B.json
    python3 benchmarks/e2e/run.py --ledger DIR
    python3 benchmarks/e2e/run.py --workload all --update-expected

One run of one workload prints every metric by name with its unit,
checks the outputs it produced, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  Without
``--trace 1`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with nothing instrumented; with it they are the per-layer ones,
from a separate replay of the same request shapes with spans recorded
around the calls into each layer.  The exit code is non-zero when any
request failed or any output check did.

``--update-expected`` rewrites ``expected.json`` from what this run
produced.  It is for changes to the benchmark itself, never for a change
that is being measured.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import DEFAULT_SEED, FULL, SMOKE, Scale  # noqa: E402


def import_program() -> float:
    """Import what every workload needs; returns seconds since start."""
    common.require_program()
    import numpy  # noqa: F401
    import repro.bench.harness  # noqa: F401
    import repro.service  # noqa: F401

    return time.perf_counter() - _T0


def declared(section: str) -> dict[str, dict]:
    return {m["name"]: m for m in common.load_benchmark()[section]}


# ---------------------------------------------------------------------------
# one untraced run
# ---------------------------------------------------------------------------


def run_end_to_end(
    name: str,
    scale: Scale,
    seed: int,
    seconds: float,
    import_s: float,
    update: bool = False,
) -> dict:
    """Set up, run whole units until ``seconds`` have passed, verify."""
    from workloads import WORKLOADS, Context, Verifier

    begin = time.perf_counter()
    with common.work_dir() as work:
        calibration_s = common.calibrate(scale.calibration_rounds)
        verifier = Verifier(
            common.load_expected(),
            enabled=scale.verified and seed == DEFAULT_SEED,
            update=update,
        )
        workload = WORKLOADS[name](Context(scale, seed, work, verifier))
        outcomes = []
        try:
            workload.setup()
            setup_s = import_s + time.perf_counter() - begin
            min_units = workload.min_units if seconds > 0 else 1
            units: list[dict] = []
            start = time.perf_counter()
            while len(units) < min_units or time.perf_counter() - start < seconds:
                cpu_before = common.cpu_seconds()
                unit_start = time.perf_counter()
                done = workload.unit(len(units))
                units.append(
                    {
                        "wall_s": time.perf_counter() - unit_start,
                        "cpu_s": common.cpu_seconds() - cpu_before,
                        "requests": len(done),
                        "measurements": sum(
                            o.measurements for o in done if o.error is None
                        ),
                    }
                )
                outcomes.extend(done)
            wall_s = time.perf_counter() - start
            peak_rss_mb = workload.peak_rss_mb(outcomes)
        finally:
            workload.close()
    good = [o for o in outcomes if o.error is None]
    timed = good or outcomes
    # Medians over requests and over units: a burst of interference from
    # the host slows a few of them, not the number reported.
    metrics = {
        "setup_s": setup_s,
        "request_p50_s": statistics.median(o.seconds for o in timed),
        "measurements_per_s": statistics.median(
            u["measurements"] / u["wall_s"] for u in units
        ),
        "cpu_per_request_s": statistics.median(
            u["cpu_s"] / u["requests"] for u in units
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
        "metrics": metrics,
        "info": {
            "units": len(units),
            "samples": len(timed),
            "wall_s": wall_s,
            "measurements": sum(o.measurements for o in good),
            "calibration_s": calibration_s,
            "digests": verifier.note,
        },
        "collected": verifier.collected,
    }


def conform(measured: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric, in declared order; a layer the
    workload never reaches reads zero.  An undeclared name is a bug."""
    names = declared("per_layer")
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {name: float(measured.get(name, 0.0)) for name in names}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(result: dict, units: dict[str, dict]) -> str:
    """Print the metrics by name; return the driver's JSON line."""
    info = result["info"]
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']} :: {info.get('digests', '')}"
    )
    for key, value in info.items():
        if key != "digests":
            print(f"   {key} = {value:.6g}" if isinstance(value, float) else f"   {key} = {value}")
    metrics = {}
    for name, value in result["metrics"].items():
        unit = units[name]["unit"]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:16.6f} {unit}")
    failed = result["failed"]
    print(f"requests: {result['attempted']} attempted, {failed} failed")
    for error in result["errors"]:
        print(f"FAIL: {error}")
    return json.dumps(
        {
            "correct": failed == 0 and not result["errors"],
            "attempted": result["attempted"],
            "failed": failed,
            "metrics": metrics,
        }
    )


def run_in_child(
    name: str, seed: int, seconds: float, trace: int, update: bool
) -> tuple[dict, str]:
    """One run in a process of its own; (its result, its last line)."""
    with common.work_dir() as work:
        out = work / "result.json"
        argv = [
            sys.executable, __file__,
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
        ]
        if update:
            argv.append("--update-expected")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]))
        if not out.is_file():
            raise SystemExit(f"run of {name} seed {seed} exited {proc.returncode}")
        result = json.loads(out.read_text())["results"][name]["runs"][0]
    return result, lines[-1]


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over repeated runs."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
        summary[name] = entry
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seed+0 .. seed+N-1")
    parser.add_argument("--out", default=None, help="write the result set here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, untraced and traced")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--ledger", metavar="DIR")
    parser.add_argument("--fill-store", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.agree:
        from agree import agree

        return agree(Path(args.agree[0]), Path(args.agree[1]))
    if args.ledger:
        from ledger import write_ledger

        return write_ledger(Path(args.ledger))
    import_s = import_program()
    scale = SMOKE if args.smoke else FULL
    if args.fill_store:
        from workloads import fill_store

        fill_store(Path(args.fill_store), scale, args.seed)
        return 0

    from workloads import WORKLOADS

    benchmark = common.load_benchmark()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown}; known: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])
    modes = [0, 1] if args.smoke else [1 if (args.traced or args.trace) else 0]
    units = {**declared("end_to_end"), **declared("per_layer")}
    # Peak memory and set-up time are per process, so a set of several
    # full-size runs gives each its own process, as the driver does.
    isolate = not args.smoke and len(names) * args.repeat > 1
    results: dict[str, dict] = {}
    collected: dict[str, str] = {}
    probes: dict[int, dict[str, float]] = {}
    ok = True
    line = ""
    for name in names:
        for mode in modes:
            runs = []
            for rep in range(args.repeat):
                seed = args.seed + rep
                if isolate:
                    result, line = run_in_child(
                        name, seed, seconds, mode, args.update_expected
                    )
                elif mode:
                    from traced import run_traced

                    result = run_traced(name, scale, seed, probes)
                    result["metrics"] = conform(result["metrics"])
                else:
                    result = run_end_to_end(
                        name, scale, seed, seconds, import_s, args.update_expected
                    )
                if not isolate:
                    line = report(result, units)
                ok = ok and result["failed"] == 0 and not result["errors"]
                collected.update(result.pop("collected", {}))
                runs.append(result)
            key = f"{name}:traced" if mode and args.smoke else name
            results[key] = {"runs": runs, "summary": summarise(runs)}
    if args.update_expected and not isolate:
        merged = {**common.load_expected(), **collected}
        common.EXPECTED_JSON.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"wrote {common.EXPECTED_JSON} ({len(collected)} digests)")
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "schema": 1,
                    "scale": scale.name,
                    "seed": args.seed,
                    "repeat": args.repeat,
                    "seconds": seconds,
                    "claim": None,
                    "results": results,
                },
                indent=1,
            )
            + "\n"
        )
    # The last line of standard output is the result of the last run.
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
