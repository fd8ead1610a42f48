"""Write ``LEDGER.md`` from the committed result sets of one commit.

``run.py --ledger benchmarks/e2e/baseline`` reads ``set_a.json`` and
``set_b.json`` (two untraced result sets) and ``traced_a.json`` (a
traced one) from that directory and writes ``LEDGER.md`` beside them:
the end-to-end numbers, then for every workload where its request time
went layer by layer, then the verdict on the five suspects ROADMAP item
1 names.  Every value is given raw and divided by ``e2e.calibration_s``
of the same run, so that a ledger from another machine compares.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import common
from agree import spread
from traced import PROBE_METRICS

CONFIRMED_SHARE = 0.10
"""A suspect is *confirmed* when it owns at least this share of the
request time of some workload, and *cleared* when it owns less on all."""

LAYER_NOTES = {
    "cli.startup": "fresh interpreter + `import repro.bench.cli` (probe)",
    "bench.cli": "argument parsing, printing, the figure loop",
    "bench.session_build": "tables + indexes of the systems (`DatabaseSystem.__init__`)",
    "bench.budget_yardstick": "`table_scan_seconds`: one table scan per budget",
    "bench.requests": "`compute_map` outside the sweep: spec, engine set-up",
    "bench.figures": "claims and analysis in the figure functions",
    "core.scenario": "per-cell query and plan construction (`Scenario.cell`)",
    "core.runner": "serial sweep loop: driver, records, snapshots, progress",
    "core.parallel": "pool sweep in the parent: spawn, dispatch, *waiting for workers* (their session build and executor time is in here), unpickling",
    "core.cellstore": "index load (JSONL decode + digests), lookups, appends",
    "core.mapdata": "merge, to_dict / from_dict, densify",
    "executor": "`PlanRunner.measure` in this process (storage + sim inside)",
    "optimizer": "`choice_maps` and `PlanChooser.choose`",
    "viz": "SVG and PNG rendering",
    "io.artifacts": "`Path.write_text` / `write_bytes`",
    "service": "`JobManager.submit`",
    "service.client": "the client's own time: HTTP round trips, JSON, queue wait, job-thread time outside any span",
}


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(run["metrics"][key] for run in runs)


def _ledger(runs: list[dict]) -> tuple[dict[str, dict[str, float]], float]:
    """Median self seconds and calls per layer, and the request seconds."""
    layers = {}
    for layer in runs[0]["ledger"]:
        layers[layer] = {
            "self_s": statistics.median(r["ledger"][layer]["self_s"] for r in runs),
            "calls": statistics.median(r["ledger"][layer]["calls"] for r in runs),
        }
    total = statistics.median(r["info"]["replay_request_s"] for r in runs)
    return layers, total


def write_ledger(directory: Path) -> int:
    benchmark = common.load_benchmark()
    set_a = json.loads((directory / "set_a.json").read_text())
    set_b = json.loads((directory / "set_b.json").read_text())
    traced = json.loads((directory / "traced_a.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    out: list[str] = []
    add = out.append

    add("# Wall-clock ledger")
    add("")
    add(
        "Generated by `python3 benchmarks/e2e/run.py --ledger "
        "benchmarks/e2e/baseline` from `set_a.json`, `set_b.json` and "
        "`traced_a.json` in this directory; do not edit by hand.  All "
        "times are host seconds on the machine that produced those files "
        f"(`e2e.calibration_s` = "
        f"{_median(traced['results'][workloads[0]]['runs'], 'e2e.calibration_s'):.3f} s); "
        "the `/cal` columns divide by the calibration time of the same "
        "run so that another machine's ledger compares.  `\"claim\": null`: "
        "these are the numbers later changes are measured against, no "
        "gain is claimed here."
    )
    add("")

    add("## End to end")
    add("")
    add(
        f"Medians over {set_a['repeat']} runs per workload (seeds "
        f"{set_a['seed']}..{set_a['seed'] + set_a['repeat'] - 1}), two "
        "sets of the same commit; spread is the quartile distance over "
        "the median."
    )
    add("")
    add("| workload | metric | set A | set B | spread A | spread B | A /cal | bound |")
    add("|---|---|---:|---:|---:|---:|---:|---:|")
    for workload in workloads:
        a, b = set_a["results"][workload], set_b["results"][workload]
        cal = statistics.median(r["info"]["calibration_s"] for r in a["runs"])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sa, sb = a["summary"][name], b["summary"][name]
            add(
                f"| {workload} | `{name}` ({metric['unit']}) | {sa['median']:.4g} "
                f"| {sb['median']:.4g} | {spread(sa):.1%} | {spread(sb):.1%} "
                f"| {sa['median'] / cal:.4g} | {metric['bound']:.0%} |"
            )
    add("")

    add("## Where a request's time goes")
    add("")
    add(
        "From the traced run: one replay of each workload's request "
        "shapes in one process with spans around the calls into each "
        "layer.  *seconds* is the layer's self time summed over the "
        "replay, *share* is that over the replay's request seconds, "
        "*calls* the spans recorded.  A row is left out when the workload "
        "never reaches the layer."
    )
    owners = {}
    shares: dict[str, dict[str, float]] = {}
    for workload in workloads:
        runs = traced["results"][workload]["runs"]
        layers, total = _ledger(runs)
        cal = _median(runs, "e2e.calibration_s")
        attributed = sum(v["self_s"] for v in layers.values())
        ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
        owners[workload] = ranked[0][0], ranked[0][1]["self_s"] / total
        shares[workload] = {k: v["self_s"] / total for k, v in layers.items()}
        add("")
        add(f"### {workload}")
        add("")
        add(
            f"Request seconds in the replay: {total:.3f} s ({total / cal:.3g} /cal); "
            f"attributed to the layers below: {attributed / total:.1%}; "
            f"tracing cost (traced / untraced replay): "
            f"{_median(runs, 'e2e.trace_overhead_ratio'):.3f}."
        )
        add("")
        add("| layer | seconds | /cal | share | calls | what it is |")
        add("|---|---:|---:|---:|---:|---|")
        for layer, entry in ranked:
            if not entry["calls"]:
                continue
            add(
                f"| `{layer}` | {entry['self_s']:.4f} | {entry['self_s'] / cal:.3g} "
                f"| {entry['self_s'] / total:.1%} | {entry['calls']:.0f} "
                f"| {LAYER_NOTES[layer]} |"
            )
    add("")

    add("## Who owns the request")
    add("")
    for workload in workloads:
        layer, share = owners[workload]
        add(f"- **{workload}**: `{layer}`, {share:.0%} of the request.")
    add("")

    add("## The five suspects")
    add("")
    add(
        f"*Confirmed*: owns at least {CONFIRMED_SHARE:.0%} of the request "
        "time of some workload.  *Cleared*: less than that on every "
        "workload.  Shares are of the replay's request seconds."
    )
    add("")

    def share_of(layers: tuple[str, ...]) -> dict[str, float]:
        return {
            w: sum(shares[w].get(layer, 0.0) for layer in layers) for w in workloads
        }

    def metric_share(metric: str, times: float = 1.0) -> dict[str, float]:
        result = {}
        for w in workloads:
            runs = traced["results"][w]["runs"]
            result[w] = times * _median(runs, metric) / _median(runs, "e2e.replay_request_s")
        return result

    cold_runs = traced["results"]["service_cold"]["runs"]
    suspects = [
        (
            "fresh `BenchSession` per job (table + index build, budget yardstick)",
            share_of(("bench.session_build", "bench.budget_yardstick")),
            "`bench.session_build_s` + `bench.budget_yardstick_s`",
        ),
        (
            "`snapshot_every=1` building a `MapData` per cell",
            {
                w: a + b
                for (w, a), b in zip(
                    metric_share("core.runner.sweep_self_s").items(),
                    metric_share("core.mapdata.merge_s").values(),
                )
            },
            "all of `core.runner.sweep_self_s` + `core.mapdata.merge_s` (an "
            "upper bound: the loop's records and progress events and the "
            "pool's part merges are in them too); the probe "
            "`core.runner.snapshot_overhead_s` is "
            f"{_median(cold_runs, 'core.runner.snapshot_overhead_s') * 1e3:+.1f} ms "
            "on a 9x9 map",
        ),
        (
            "JSONL decode + per-line digests on the warm path",
            metric_share("core.cellstore.load_index_s"),
            "`core.cellstore.load_index_s` (every job and every CLI run "
            "scans every shard once)",
        ),
        (
            "pickling `MapData` parts back from pool workers",
            metric_share("core.parallel.part_pickle_s", times=8 * 7),
            "probe `core.parallel.part_pickle_s` x 8 parts x 7 requests "
            "(dumps + loads of a 15-plan 9x9 part, "
            f"{_median(cold_runs, 'core.parallel.part_pickle_bytes'):.0f} bytes); "
            "the pool as a whole is `core.parallel.pool_wait_s`, of which "
            "spawn + worker session build is about "
            f"{_median(cold_runs, 'core.parallel.fixed_cost_s'):.2f} s per sweep "
            "(`core.parallel.fixed_cost_s`)",
        ),
        (
            "PNG/SVG render",
            share_of(("viz",)),
            "`viz.render_svg_s` + `viz.render_png_s`",
        ),
    ]
    add("| suspect | verdict | " + " | ".join(workloads) + " | measured as |")
    add("|---|---|" + "---:|" * len(workloads) + "---|")
    for title, by_workload, how in suspects:
        word = (
            "**confirmed**"
            if max(by_workload.values()) >= CONFIRMED_SHARE
            else "cleared"
        )
        cells = " | ".join(f"{by_workload[w]:.1%}" for w in workloads)
        add(f"| {title} | {word} | {cells} | {how} |")
    add("")

    add("## Probes")
    add("")
    add(
        "Fixed inputs, the same for every workload (README.md lists "
        "them); medians over the traced runs in `traced_a.json`."
    )
    add("")
    add("| metric | value | unit |")
    add("|---|---:|---|")
    all_runs = [r for w in workloads for r in traced["results"][w]["runs"]]
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    for name in units:
        if name in PROBE_METRICS or name.startswith("executor.host_s."):
            add(f"| `{name}` | {_median(all_runs, name):.6g} | {units[name]} |")
    add("")
    (directory / "LEDGER.md").write_text("\n".join(out))
    print(f"wrote {directory / 'LEDGER.md'}")
    return 0
