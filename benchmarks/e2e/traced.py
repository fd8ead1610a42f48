"""The traced run: where one workload's request time goes, layer by layer.

A traced run replays the workload's request shapes once, in this
process and one request at a time, with wall-clock spans recorded around
the calls into each layer (:mod:`spans`).  The spans partition the
replay's request seconds by layer (the *ledger*); the same replay run
just before without spans gives the cost of tracing.

What no request reaches — refinement, the whole-map cache, a dedup hit,
the LRU kernel on a long trace, compaction — is measured by small fixed
*probes* that are the same for every workload.  README.md says for each
metric which of the two it comes from.

Timings are host seconds.  Counts in :data:`EXACT` are properties of the
simulation or of the request shapes and must repeat bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import common
from common import DEFAULT_SEED, Scale
from spans import (
    Recorder,
    Span,
    by_layer,
    count,
    instrument,
    own_seconds,
    self_seconds,
    total_seconds,
)
from workloads import (
    PLAN_COUNTS,
    WORKLOADS,
    Context,
    Outcome,
    Service,
    Verifier,
    artifacts_digest,
    bench_config,
    check_cli,
    http,
    no_span,
    request_list,
    run_request,
)

clock = time.perf_counter

SCENARIOS = tuple(PLAN_COUNTS)

EXACT = frozenset(
    {
        "bench.session_build_calls",
        "executor.measurements",
        "sim.censored_measurements",
        "sim.map_digest_mismatches",
        "storage.pages_read",
        "storage.pool_hits",
        "storage.pool_misses",
        "storage.pool_evictions",
        "storage.pool_hit_ratio",
        "storage.spill_pages",
        "core.cellstore.writes",
        "core.cellstore.lookups",
        "core.cellstore.hit_ratio",
        "core.cellstore.bytes_per_measurement",
        "core.parallel.part_pickle_bytes",
        "core.mapdata.json_bytes",
        "core.driver.refine_measured_ratio",
        "service.requests_rejected",
        "service.requests_failed",
        "viz.render_bytes",
        "bench.artifact_bytes",
    }
    | {f"sim.seconds_total.{scenario}" for scenario in SCENARIOS}
)

PROBE_METRICS = frozenset(
    {
        "cli.startup_s",
        "executor.host_us_per_page_read",
        "storage.pages_read",
        "storage.pool_hits",
        "storage.pool_misses",
        "storage.pool_evictions",
        "storage.pool_hit_ratio",
        "storage.spill_pages",
        "storage.lru_kernel.simulate_s",
        "storage.lru_kernel.accesses_per_s",
        "storage.table.build_s",
        "storage.btree.build_s",
        "storage.btree.probe_many_s",
        "obs.capture_overhead_ratio",
        "bench.mapcache_load_s",
        "core.runner.snapshot_overhead_s",
        "core.runner.replay_s",
        "core.runner.replay_us_per_measurement",
        "core.runner.replay_vs_mapcache_ratio",
        "core.parallel.speedup_ratio",
        "core.parallel.fixed_cost_s",
        "core.parallel.part_pickle_s",
        "core.parallel.part_pickle_bytes",
        "core.mapdata.json_bytes",
        "core.mapdata.from_json_s",
        "core.mapdata.densify_s",
        "core.driver.refine_s",
        "core.driver.refine_measured_ratio",
        "service.dedup_hit_s",
        "service.metrics_scrape_s",
    }
)
"""Measured on fixed probe inputs (with every ``executor.host_s.*``);
all other per-layer metrics are sums over the workload's own replay."""

LEDGER_LAYERS = (
    "cli.startup",
    "bench.cli",
    "bench.session_build",
    "bench.budget_yardstick",
    "bench.requests",
    "bench.figures",
    "core.scenario",
    "core.runner",
    "core.parallel",
    "core.cellstore",
    "core.mapdata",
    "executor",
    "optimizer",
    "viz",
    "io.artifacts",
    "service",
    "service.client",
)
"""Every layer a span can carry; the ledger has one row per layer."""


def safe(name: str) -> str:
    """The CLI's own rule for turning a plan id into a file name."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


# ---------------------------------------------------------------------------
# replaying one unit of a workload in this process
# ---------------------------------------------------------------------------


def cli_in_process(cwd: Path, scale: Scale) -> tuple[int, str]:
    """``repro.bench.cli.main`` with the child's arguments and knobs."""
    import repro.bench.cli as cli

    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(dict(scale.cli_env))
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(
                [str(cwd / "out"), "--quiet", "--cell-cache", str(cwd / "store")]
            )
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, stdout.getvalue()


def replay_cli(workload, span, index: int) -> tuple[list[Outcome], Path]:
    """One CLI run in this process: (its outcome, the store it used)."""
    ctx = workload.ctx
    warm = workload.name == "cli_warm"
    if warm:
        cwd = workload.cwd
    else:
        cwd = ctx.work / f"replay-{index}"
        cwd.mkdir()
    start = clock()
    with span("bench.cli.main", "bench.cli"):
        code, text = cli_in_process(cwd, ctx.scale)
    outcome = Outcome(kind=workload.name, seconds=clock() - start)
    outcome.error = check_cli(text, code, warm, ctx.scale, outcome)
    if outcome.error is None:
        digest, n_files, n_bytes = artifacts_digest(cwd / "out")
        outcome.detail.update(
            artifacts=n_files, artifact_bytes=n_bytes, digest=digest
        )
        outcome.detail["render_bytes"] = sum(
            path.stat().st_size
            for path in (cwd / "out").iterdir()
            if path.suffix in (".svg", ".png")
        )
        outcome.error = ctx.verifier.check("cli|artifacts", digest)
    return [outcome], cwd / "store"


def replay_service(workload, span, index: int) -> tuple[list[Outcome], Path]:
    workload.clients = 1  # one client, so every second has one owner
    return workload.unit(index, span), workload.store


REPLAYS = {
    "cli_cold": replay_cli,
    "cli_warm": replay_cli,
    "service_cold": replay_service,
    "service_warm": replay_service,
}


# ---------------------------------------------------------------------------
# metrics from the replay's spans
# ---------------------------------------------------------------------------


def map_digest(mapdata) -> str:
    return common.sha256(common.canonical_json(mapdata.to_dict()))


def replay_metrics(
    spans: list[Span],
    ledger: dict[str, dict[str, float]],
    own: dict[int, float],
    outcomes: list[Outcome],
    maps: list[tuple[str, object]],
) -> dict[str, float]:
    import numpy as np

    def layer(name: str) -> float:
        return ledger.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    m["bench.cli.self_s"] = layer("bench.cli")
    m["bench.session_build_s"] = layer("bench.session_build")
    m["bench.session_build_calls"] = sum(
        1 for s in spans if s.name == "bench.session_build" and s.outermost
    )
    m["bench.budget_yardstick_s"] = layer("bench.budget_yardstick")
    for scenario in SCENARIOS:
        m[f"bench.map_s.{scenario}"] = total_seconds(
            spans, "bench.compute_map", scenario
        )
    figure_ids = sorted({s.label for s in spans if s.name == "bench.figure"})
    for figure_id in figure_ids:
        m[f"bench.figure_s.{figure_id}"] = total_seconds(
            spans, "bench.figure", figure_id
        )
    m["bench.figures.self_s"] = layer("bench.figures")
    m["bench.artifact_write_s"] = layer("io.artifacts")
    m["bench.artifact_bytes"] = sum(
        o.detail.get("artifact_bytes", 0) for o in outcomes
    )
    m["executor.self_s"] = layer("executor")
    m["executor.measurements"] = count(spans, "executor.measure")
    m["core.scenario.cell_setup_s"] = layer("core.scenario")
    m["core.runner.sweep_s"] = total_seconds(spans, "core.runner.sweep")
    m["core.runner.sweep_self_s"] = layer("core.runner")
    m["core.parallel.sweep_s"] = total_seconds(spans, "core.parallel.sweep")
    m["core.parallel.pool_wait_s"] = layer("core.parallel")
    store = "core.cellstore"
    m[f"{store}.put_many_s"] = own_seconds(
        spans, own, f"{store}.put_many"
    ) + own_seconds(spans, own, f"{store}.records")
    m[f"{store}.load_index_s"] = own_seconds(spans, own, f"{store}.load_index")
    m[f"{store}.lookup_s"] = own_seconds(spans, own, f"{store}.lookup")
    m["core.mapdata.merge_s"] = own_seconds(spans, own, "core.mapdata.merge")
    m["core.mapdata.to_json_s"] = own_seconds(spans, own, "core.mapdata.to_dict")
    m["optimizer.choice_maps_s"] = layer("optimizer")
    choices = count(spans, "optimizer.choose")
    m["optimizer.choices_per_s"] = (
        choices / layer("optimizer") if choices else 0.0
    )
    png = sum(
        own[s.id]
        for s in spans
        if s.layer == "viz" and ("png" in s.name or s.label == "png")
    )
    m["viz.render_png_s"] = png
    m["viz.render_svg_s"] = layer("viz") - png
    m["viz.png_encode_s"] = total_seconds(spans, "viz.encode_png")
    m["viz.render_bytes"] = sum(o.detail.get("render_bytes", 0) for o in outcomes)

    # service, as its client saw it
    def detail(key: str) -> float:
        return sum(o.detail.get(key, 0.0) for o in outcomes)

    served = [o for o in outcomes if "job_s" in o.detail]
    m["service.submit_s"] = detail("submit_s")
    m["service.job_s"] = detail("job_s")
    m["service.queue_wait_s"] = sum(
        o.detail["submit_s"] + o.detail["wait_s"] - o.detail["job_s"]
        for o in served
    )
    m["service.http_overhead_s"] = sum(
        o.seconds - o.detail["job_s"] for o in served
    )
    m["service.result_s"] = detail("result_s")
    m["service.result_bytes"] = detail("result_bytes")
    m["service.render_s"] = detail("render_s")
    m["service.requests_rejected"] = sum(
        1 for o in outcomes if o.detail.get("rejected")
    )
    m["service.requests_failed"] = sum(
        1 for o in outcomes if o.kind in PLAN_COUNTS and o.error is not None
    )
    m["service.request_max_s"] = max((o.seconds for o in served), default=0.0)
    m["service.self_s"] = layer("service") + layer("service.client")

    # the simulation's own numbers: a host-speed change must not move them
    for scenario in SCENARIOS:
        m[f"sim.seconds_total.{scenario}"] = float(
            sum(np.nansum(mapdata.times) for name, mapdata in maps if name == scenario)
        )
    m["sim.censored_measurements"] = int(
        sum(np.isnan(mapdata.times).sum() for _name, mapdata in maps)
    )
    return m


def store_metrics(store_dir: Path) -> dict[str, float]:
    """Counters of the cell store the replay used, then its compaction."""
    from repro.core.cellstore import CellStore

    m = {
        "core.cellstore.bytes_per_measurement": 0.0,
        "core.cellstore.compact_s": 0.0,
    }
    if not store_dir.is_dir():
        return m
    store = CellStore(store_dir)
    entries = len(store)
    size = sum(path.stat().st_size for path in store_dir.glob("cells-*.jsonl"))
    m["core.cellstore.bytes_per_measurement"] = size / entries if entries else 0.0
    start = clock()
    store.compact()
    m["core.cellstore.compact_s"] = clock() - start
    return m


# ---------------------------------------------------------------------------
# probes: fixed inputs, the same for every workload
# ---------------------------------------------------------------------------


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = clock()
    result = fn(*args, **kwargs)
    return clock() - start, result


def probe_cells(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Corners, edge midpoints and centre of a 2-D grid: nine cells."""
    rows, cols = shape
    return [
        (i, j)
        for i in sorted({0, rows // 2, rows - 1})
        for j in sorted({0, cols // 2, cols - 1})
    ]


def probe_startup(scale: Scale, m: dict[str, float]) -> None:
    """A fresh interpreter importing the CLI: what every CLI request pays
    before its first line runs."""
    samples = []
    for _ in range(scale.startup_samples):
        seconds, _ = timed(
            subprocess.run,
            [sys.executable, "-c", "import repro.bench.cli"],
            env=common.child_env(),
            check=True,
        )
        samples.append(seconds)
    m["cli.startup_s"] = statistics.median(samples)


def probe_executor(scale: Scale, m: dict[str, float]) -> None:
    """Host seconds per plan over nine fixed cells of each plan family."""
    from repro.bench.harness import BenchSession
    from repro.bench.requests import definition_for

    config = replace(
        bench_config(scale, scale.warm_rows, None, 0),
        join_rows=scale.join_rows,
        sort_rows=scale.sort_rows,
        sort_memory=scale.sort_memory,
    )
    session = BenchSession(config)
    host = 0.0
    pages = 0
    for name in ("two_predicate_nojitter", "join", "sort_spill"):
        definition = definition_for(name)
        scenario = definition.scenario(session)
        budget = definition.budget(session)
        memory = definition.memory_bytes(config)
        providers = scenario.providers()
        for idx in probe_cells(scenario.grid_shape):
            cell = scenario.cell(idx)
            for provider_i, plans in cell.plans:
                runner = providers[provider_i].runner(
                    budget_seconds=budget,
                    memory_bytes=(
                        memory if cell.memory_bytes is None else cell.memory_bytes
                    ),
                )
                for plan_id, plan in plans.items():
                    seconds, run = timed(runner.measure, plan)
                    key = f"executor.host_s.{safe(plan_id)}"
                    m[key] = m.get(key, 0.0) + seconds
                    host += seconds
                    pages += run.io.pages_read
    m["executor.host_us_per_page_read"] = host / pages * 1e6 if pages else 0.0


def probe_config(scale: Scale, **changes):
    return replace(
        bench_config(scale, scale.probe_rows, None, 0),
        min_exp_2d=scale.probe_min_exp,
        **changes,
    )


def request_map(config, scenario: str, **session_kwargs):
    """(seconds, map) for one request on a fresh session."""
    from repro.bench.harness import BenchSession
    from repro.bench.requests import MapRequest

    session = BenchSession(config, **session_kwargs)
    return timed(session.request_map, MapRequest(scenario))


def probe_storage(scale: Scale, seed: int, m: dict[str, float]) -> None:
    import numpy as np
    from repro.obs.profile import profiles_from_meta
    from repro.storage.env import StorageEnv
    from repro.storage.lru_kernel import simulate_lru
    from repro.storage.table import Table

    # Exact counters, from the sim-time flight recorder.
    totals: dict[str, int] = {}
    traced_s = {}
    for scenario in ("two_predicate_nojitter", "join"):
        traced_s[scenario], mapdata = request_map(
            probe_config(scale, trace=True), scenario
        )
        for profile in profiles_from_meta(mapdata.meta).values():
            for name, value in profile.counter_totals().items():
                totals[name] = totals.get(name, 0) + value
    for name in ("pages_read", "pool_hits", "pool_misses", "pool_evictions", "spill_pages"):
        m[f"storage.{name}"] = totals.get(name, 0)
    accesses = totals.get("pool_hits", 0) + totals.get("pool_misses", 0)
    m["storage.pool_hit_ratio"] = (
        totals.get("pool_hits", 0) / accesses if accesses else 0.0
    )
    plain_s, _ = request_map(probe_config(scale), "join")
    m["obs.capture_overhead_ratio"] = traced_s["join"] / plain_s

    # The LRU kernel on a long miss-heavy trace made from the seed.
    rng = np.random.default_rng(seed)
    trace = rng.integers(0, 4096, size=scale.lru_accesses, dtype=np.int64)
    seconds, _ = timed(simulate_lru, trace, np.empty(0, dtype=np.int64), 256)
    m["storage.lru_kernel.simulate_s"] = seconds
    m["storage.lru_kernel.accesses_per_s"] = trace.size / seconds

    # Table and index build, then a batch of index probes.
    n_rows = scale.probe_rows * 4
    columns = {
        "a": rng.integers(0, 1 << 20, size=n_rows, dtype=np.int64),
        "b": rng.integers(0, 1 << 10, size=n_rows, dtype=np.int64),
    }
    env = StorageEnv(pool_pages=256)
    m["storage.table.build_s"], table = timed(Table, env, "probe", columns)
    m["storage.btree.build_s"], index = timed(table.create_index, "ix_a", ["a"])
    keys = np.sort(rng.choice(columns["a"], size=min(4096, n_rows)))
    m["storage.btree.probe_many_s"], _ = timed(index.tree.probe_many, keys)


def probe_sweeps(scale: Scale, work: Path, m: dict[str, float]) -> None:
    """Sweep-engine costs no workload isolates, on one small map."""
    from repro.bench.harness import BenchSession
    from repro.bench.requests import definition_for
    from repro.core.driver import DenseGridPolicy
    from repro.core.mapdata import MapData
    from repro.core.parallel import ParallelSweep

    scenario = "two_predicate"
    quiet = {"progress": lambda event: None}
    plain_s, mapdata = request_map(probe_config(scale), scenario, **quiet)
    snap_s, _ = request_map(
        probe_config(scale), scenario, snapshot_every=1, **quiet
    )
    m["core.runner.snapshot_overhead_s"] = snap_s - plain_s

    # Fill a store and a whole-map cache, then answer from each alone.
    store, cache = str(work / "probe-store"), str(work / "probe-cache")
    request_map(probe_config(scale, cell_cache_dir=store, cache_dir=cache), scenario)
    m["bench.mapcache_load_s"], cached = request_map(
        probe_config(scale, cache_dir=cache), scenario
    )
    m["core.runner.replay_s"], replayed = request_map(
        probe_config(scale, cell_cache_dir=store), scenario
    )
    m["core.runner.replay_us_per_measurement"] = (
        m["core.runner.replay_s"] / mapdata.times.size * 1e6
    )
    m["core.runner.replay_vs_mapcache_ratio"] = (
        m["core.runner.replay_s"] / m["bench.mapcache_load_s"]
    )
    digests = {map_digest(x) for x in (mapdata, cached, replayed)}
    m["sim.map_digest_mismatches"] = len(digests) - 1

    # The process pool: whole map, then two cells (spawn + worker build).
    pool_s, pooled = request_map(probe_config(scale, n_workers=2), scenario)
    m["core.parallel.speedup_ratio"] = plain_s / pool_s
    m["sim.map_digest_mismatches"] += map_digest(pooled) != map_digest(mapdata)
    config = probe_config(scale)
    definition = definition_for(scenario)
    engine = ParallelSweep(
        definition.factory(config),
        budget_seconds=definition.budget(BenchSession(config)),
        memory_bytes=definition.memory_bytes(config),
        jitter=definition.jitter(config),
        n_workers=2,
    )
    m["core.parallel.fixed_cost_s"], part = timed(
        engine.sweep, definition.spec(config), policy=DenseGridPolicy(cells=[0, 1])
    )
    start = clock()
    blob = pickle.dumps(mapdata)
    pickle.loads(blob)
    m["core.parallel.part_pickle_s"] = clock() - start
    m["core.parallel.part_pickle_bytes"] = len(blob)

    # JSON in and out of one map.
    text = json.dumps(mapdata.to_dict())
    m["core.mapdata.json_bytes"] = len(text)
    m["core.mapdata.from_json_s"], _ = timed(
        lambda: MapData.from_dict(json.loads(text))
    )

    # Adaptive refinement on the full-resolution grid.
    recorder = Recorder()
    refine = replace(probe_config(scale, refine=True), min_exp_2d=scale.min_exp_2d)
    with instrument(recorder):
        m["core.driver.refine_s"], refined = request_map(refine, scenario)
    m["core.mapdata.densify_s"] = total_seconds(
        recorder.drain(), "core.mapdata.densify"
    )
    m["core.driver.refine_measured_ratio"] = float(
        refined.measured_mask.mean()
    )


def probe_service(scale: Scale, m: dict[str, float]) -> None:
    """A finished job asked for again, and one scrape of /metrics."""
    verifier = Verifier({}, enabled=False, update=False)
    service = Service(bench_config(scale, scale.probe_rows, None, 0), workers=1)
    try:
        request = request_list(scale, DEFAULT_SEED)[-1]
        first = run_request(service.base, request, scale, scale.probe_rows, verifier)
        start = clock()
        code, body = http(service.base, "/maps", request)
        job_id = json.loads(body)["job_id"]
        http(service.base, f"/jobs/{job_id}")
        m["service.dedup_hit_s"] = clock() - start
        if first.error or code != 202 or json.loads(body)["created"]:
            raise RuntimeError(f"dedup probe: {first.error or body[:200]}")
        m["service.metrics_scrape_s"], _ = timed(http, service.base, "/metrics")
    finally:
        service.close()


# ---------------------------------------------------------------------------
# one traced run
# ---------------------------------------------------------------------------


def run_probes(scale: Scale, seed: int, work: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    probe_startup(scale, m)
    probe_executor(scale, m)
    probe_storage(scale, seed, m)
    probe_sweeps(scale, work, m)
    probe_service(scale, m)
    return m


def run_traced(
    name: str, scale: Scale, seed: int, probes: dict[int, dict[str, float]]
) -> dict:
    """Replay ``name`` bare and traced, then add the probes.

    ``probes`` holds the probe results of this process by seed: their
    inputs do not depend on the workload, so one process tracing several
    workloads measures them once.
    """
    with common.work_dir() as work:
        calibration_s = common.calibrate(scale.calibration_rounds)
        verifier = Verifier(
            common.load_expected(),
            enabled=scale.verified and seed == DEFAULT_SEED,
            update=False,
        )
        workload = WORKLOADS[name](Context(scale, seed, work, verifier))
        replay = REPLAYS[name]
        recorder = Recorder()
        maps: list[tuple[str, object]] = []
        try:
            workload.setup()
            # The same shapes, first bare, then with spans: the ratio is
            # what tracing costs.
            untraced_s, (bare, _store) = timed(replay, workload, no_span, 0)
            with instrument(recorder, on_map=lambda s, x: maps.append((s, x))):
                traced_s, (outcomes, store) = timed(
                    replay, workload, recorder.span, 1
                )
            spans = recorder.drain()
        finally:
            workload.close()
        own = self_seconds(spans, recorder.client_thread)
        ledger = by_layer(spans, own)
        m = replay_metrics(spans, ledger, own, outcomes, maps)
        m.update(store_metrics(store))
        m.update(store_stats(outcomes))
        mismatches = sum(
            1 for o in outcomes + bare if o.error and "digest" in o.error
        )
        if name.startswith("cli") or name == "service_warm":
            # Same inputs twice: traced and bare outputs must be equal.
            a = sorted(o.detail.get("digest", "") for o in bare)
            b = sorted(o.detail.get("digest", "") for o in outcomes)
            mismatches += a != b
        m["e2e.trace_overhead_ratio"] = traced_s / untraced_s
        m["e2e.calibration_s"] = calibration_s
        if seed not in probes:
            probes[seed] = run_probes(scale, seed, work)
        m.update(probes[seed])
        m["sim.map_digest_mismatches"] += mismatches
        if name.startswith("cli"):
            ledger["cli.startup"] = {"self_s": m["cli.startup_s"], "calls": 1}
        request_s = sum(o.seconds for o in outcomes)
        if name.startswith("cli"):
            request_s += m["cli.startup_s"]
        m["e2e.replay_request_s"] = request_s
        trace_path = common.WORK_ROOT / f"trace_{name}.json"
        common.WORK_ROOT.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(recorder.to_json(spans)))
    failed = [o for o in outcomes + bare if o.error is not None]
    errors = sorted({o.error for o in failed})
    if m["sim.map_digest_mismatches"]:
        errors.append(f"{m['sim.map_digest_mismatches']} map digests differ")
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "attempted": len(outcomes) + len(bare),
        "failed": len(failed),
        "errors": errors[:5],
        "metrics": m,
        "ledger": {
            layer: ledger.get(layer, {"self_s": 0.0, "calls": 0})
            for layer in LEDGER_LAYERS
        },
        "info": {
            "spans": len(spans),
            "replay_request_s": request_s,
            "attributed_s": sum(e["self_s"] for e in ledger.values()),
            "trace_file": str(trace_path.relative_to(common.ROOT)),
            "digests": verifier.note,
        },
    }


def store_stats(outcomes: list[Outcome]) -> dict[str, float]:
    """Cell-store traffic of the replay, counted at its boundary.

    Lookups are cells asked of the store and hits those it answered (the
    jobs' own ``cache_hits``; for the CLI its summary line); writes are
    the (plan, cell) values handed to ``put_many``.
    """
    lookups = hits = writes = 0
    for o in outcomes:
        d = o.detail
        if "store_lookups" in d:
            lookups += d["store_lookups"]
            hits += d["store_hits"]
            writes += d["store_writes"]
        elif "cells" in d:
            lookups += d["cells"]
            hits += d["cache_hits"] or 0
            writes += 0 if d["cache_hits"] == d["cells"] else o.measurements
    return {
        "core.cellstore.lookups": lookups,
        "core.cellstore.writes": writes,
        "core.cellstore.hit_ratio": hits / lookups if lookups else 0.0,
    }
