"""Observability: sim-time tracer, cell profiles, metrics, exports.

The load-bearing contract throughout: **spans observe charging, they
never alter it** — tracing on vs. off yields byte-identical map JSON
(same invariant family as ``use_batched``), so golden fixtures never
need a re-baseline when tracing ships or evolves.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.cellstore import CellStore
from repro.core.driver import AdaptiveRefinePolicy
from repro.core.parallel import ParallelSweep
from repro.core.progress import ProgressEvent
from repro.core.runner import RobustnessSweep
from repro.core.scenario import (
    OperatorBench,
    SortSpillScenario,
    operator_bench_factory,
)
from repro.errors import ExperimentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    CellProfile,
    chrome_trace,
    parse_profile_key,
    profile_key,
    profile_map,
    profiles_from_meta,
    write_chrome_trace,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    trace_op,
    tracing_requested,
    use_tracer,
)

SORT_ROWS = (512, 1024)
SORT_MEM = (8 << 10, 16 << 10)


def make_sort():
    return SortSpillScenario(
        OperatorBench(), SORT_ROWS, SORT_MEM, row_bytes=64, seed=3
    )


def map_json(mapdata) -> str:
    return json.dumps(mapdata.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# tracer mechanics (fake context: the tracer duck-types ExecContext)
# ---------------------------------------------------------------------------


class _Attrs:
    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)


def fake_ctx():
    """Minimal counter-bearing context the tracer can snapshot."""
    return _Attrs(
        clock=_Attrs(now=0.0),
        disk=_Attrs(stats=_Attrs(pages_read=0, random_reads=0, pages_written=0)),
        pool=_Attrs(stats=_Attrs(hits=0, misses=0, evictions=0)),
        temp=_Attrs(pages_spilled=0),
        broker=_Attrs(granted_bytes=0, grants=0, denials=0),
    )


def test_untraced_trace_op_is_a_shared_noop():
    ctx = fake_ctx()
    first = trace_op(ctx, "scan", "scan")
    second = trace_op(ctx, "sort", "sort")
    assert first is second  # one shared object: no per-op allocation
    with first:
        pass  # enter/exit are no-ops


def test_spans_nest_and_record_counter_deltas():
    ctx = fake_ctx()
    tracer = Tracer()
    with use_tracer(tracer):
        with trace_op(ctx, "outer", "plan"):
            ctx.clock.now = 1.0
            ctx.disk.stats.pages_read = 10
            with trace_op(ctx, "inner", "scan"):
                ctx.clock.now = 3.0
                ctx.disk.stats.pages_read = 25
                ctx.pool.stats.misses = 4
            ctx.clock.now = 4.0
    # use_tracer restored the no-op default
    assert trace_op(ctx, "after", "plan") is trace_op(ctx, "again", "plan")
    roots = tracer.drain()
    assert tracer.drain() == []  # drain detaches
    (outer,) = roots
    assert (outer.name, outer.cat, outer.t0, outer.t1) == ("outer", "plan", 0.0, 4.0)
    (inner,) = outer.children
    assert (inner.t0, inner.t1) == (1.0, 3.0)
    # Deltas, and only the counters that moved inside each region.
    assert inner.counters == {"pages_read": 15, "pool_misses": 4}
    assert outer.counters == {"pages_read": 25, "pool_misses": 4}
    assert inner.duration == 2.0
    assert outer.self_seconds == 2.0  # 4.0 total minus the child's 2.0


def test_exceptions_unwind_through_open_spans():
    ctx = fake_ctx()
    tracer = Tracer()
    with use_tracer(tracer):
        with pytest.raises(RuntimeError, match="budget"):
            with trace_op(ctx, "outer", "plan"):
                with trace_op(ctx, "inner", "sort"):
                    ctx.clock.now = 2.5
                    raise RuntimeError("budget")
    (outer,) = tracer.drain()
    # Both spans closed at the abort's clock value; the error propagated.
    assert outer.t1 == 2.5
    assert outer.children[0].t1 == 2.5


def test_span_roundtrip():
    span = Span(name="a", cat="scan", t0=0.5, t1=2.0)
    span.counters = {"pages_read": 3}
    span.children = [Span(name="b", cat="sort", t0=0.6, t1=1.0)]
    restored = Span.from_dict(json.loads(json.dumps(span.to_dict())))
    assert restored == span


def test_tracing_requested_parses_the_env_knob():
    for value in ("1", "true", "YES", " on "):
        assert tracing_requested({"REPRO_TRACE": value})
    for value in ("", "0", "false", "off", "nope"):
        assert not tracing_requested({"REPRO_TRACE": value})
    assert not tracing_requested({})


# ---------------------------------------------------------------------------
# capture through the sweep engines: profiles ride, maps never change
# ---------------------------------------------------------------------------


def test_serial_capture_attaches_parseable_profiles():
    scenario = make_sort()
    mapdata = RobustnessSweep(
        [OperatorBench()], capture_profiles=True
    ).sweep(scenario)
    profiles = profiles_from_meta(mapdata.meta)
    n_cells = int(np.prod(scenario.grid_shape))
    assert len(profiles) == len(mapdata.plan_ids) * n_cells
    for key, profile in profiles.items():
        assert (profile.plan_id, profile.cell) == parse_profile_key(key)
        assert profile.spans, "every measurement opens at least the root span"
        root = profile.spans[0]
        assert root.name == "execute" and root.cat == "plan"
        # The root span covers the whole measurement: its inclusive
        # duration is the raw measured virtual time.
        assert root.duration == pytest.approx(profile.seconds)
        assert profile.counter_totals().get("pages_read", 0) >= 0
        breakdown = profile.operator_seconds(self_time=True)
        assert sum(breakdown.values()) == pytest.approx(profile.seconds)
    # The sort scenario actually exercises the sort spans.
    names = {span.name for p in profiles.values() for span in p.walk()}
    assert "external-sort" in names


def test_capture_off_leaves_meta_unprofiled():
    mapdata = RobustnessSweep([OperatorBench()]).sweep(make_sort())
    assert "profiles" not in mapdata.meta


@pytest.mark.parametrize("adaptive", [False, True], ids=["dense", "adaptive"])
def test_serial_tracing_on_off_maps_are_byte_identical(adaptive):
    def policy():
        return AdaptiveRefinePolicy(initial_step=2) if adaptive else None

    plain = RobustnessSweep([OperatorBench()]).sweep(
        make_sort(), policy=policy()
    )
    traced = RobustnessSweep([OperatorBench()], capture_profiles=True).sweep(
        make_sort(), policy=policy()
    )
    assert "profiles" in traced.meta
    assert map_json(traced) == map_json(plain)


def test_parallel_tracing_on_is_byte_identical_to_serial_off():
    plain = RobustnessSweep([OperatorBench()]).sweep(make_sort())
    engine = ParallelSweep(
        operator_bench_factory, n_workers=2, capture_profiles=True
    )
    traced = engine.sweep(make_sort().spec())
    assert map_json(traced) == map_json(plain)
    # Chunk parts carried their profiles back; the merge unioned them.
    profiles = profiles_from_meta(traced.meta)
    n_cells = int(np.prod(make_sort().grid_shape))
    assert len(profiles) == len(traced.plan_ids) * n_cells


def test_profiles_replay_from_the_cell_store(tmp_path):
    cold = RobustnessSweep(
        [OperatorBench()],
        capture_profiles=True,
        cell_store=CellStore(tmp_path),
    ).sweep(make_sort())
    warm_store = CellStore(tmp_path)
    warm = RobustnessSweep(
        [OperatorBench()], capture_profiles=True, cell_store=warm_store
    ).sweep(make_sort())
    assert warm_store.cell_misses == 0  # pure replay, nothing measured
    assert map_json(warm) == map_json(cold)
    assert warm.meta["profiles"] == cold.meta["profiles"]


def test_profile_map_projects_seconds_onto_the_grid():
    scenario = make_sort()
    mapdata = RobustnessSweep(
        [OperatorBench()], capture_profiles=True
    ).sweep(scenario)
    plan_id = mapdata.plan_ids[0]
    total = profile_map(mapdata, plan_id)
    assert total.shape == scenario.grid_shape
    assert np.isfinite(total).all()
    sort_only = profile_map(mapdata, plan_id, operator="external-sort")
    observed = np.where(np.isfinite(sort_only), sort_only, 0.0)
    assert (observed <= total + 1e-12).all()
    # An operator nobody ran projects to an all-NaN grid, not zeros.
    missing = profile_map(mapdata, plan_id, operator="no-such-op")
    assert np.isnan(missing).all()


# ---------------------------------------------------------------------------
# exports: Chrome trace JSON and the SVG panel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def captured_profiles():
    mapdata = RobustnessSweep(
        [OperatorBench()], capture_profiles=True
    ).sweep(make_sort())
    return list(profiles_from_meta(mapdata.meta).values())


def test_chrome_trace_schema(captured_profiles):
    trace = chrome_trace(captured_profiles)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events
    assert {event["ph"] for event in events} == {"X", "M"}
    for event in events:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int) and event["pid"] >= 1
        if event["ph"] == "M":
            assert "name" in event["args"]
        else:
            assert isinstance(event["tid"], int) and event["tid"] >= 1
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
    # Every cell became a process, every plan within it a thread.
    processes = [e for e in events if e["ph"] == "M" and "tid" not in e]
    assert len(processes) == len({p.cell for p in captured_profiles})


def test_chrome_trace_roundtrips_through_disk(tmp_path, captured_profiles):
    path = write_chrome_trace(tmp_path / "sub" / "trace.json", captured_profiles)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(chrome_trace(captured_profiles)))


def test_cell_profile_roundtrip(captured_profiles):
    for profile in captured_profiles:
        restored = CellProfile.from_dict(
            json.loads(json.dumps(profile.to_dict()))
        )
        assert restored == profile


def test_profile_key_roundtrips_plan_ids_with_at_signs():
    key = profile_key("sys@2.sort", (3, 0))
    assert parse_profile_key(key) == ("sys@2.sort", (3, 0))


# ---------------------------------------------------------------------------
# metrics registry + Prometheus rendering
# ---------------------------------------------------------------------------


def test_counter_labels_and_values():
    registry = MetricsRegistry()
    requests = registry.counter("reqs_total", "Requests.")
    requests.inc(reason="full")
    requests.inc(2, reason="full")
    requests.inc(reason="budget")
    with pytest.raises(ExperimentError):
        requests.inc(-1)
    text = registry.render()
    assert "# HELP reqs_total Requests." in text
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{reason="full"} 3\n' in text
    assert 'reqs_total{reason="budget"} 1\n' in text
    assert "missing" not in text


def test_gauge_set_function_and_histogram_buckets():
    registry = MetricsRegistry()
    depth = registry.gauge("depth", "Queue depth.")
    depth.set_function(lambda: 7)
    registry.gauge("unbounded", "No limit.").set(float("inf"))
    latency = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
    latency.observe(0.05)
    latency.observe(0.5)
    latency.observe(5.0)
    text = registry.render()
    assert "depth 7" in text
    assert "unbounded +Inf\n" in text
    assert 'latency_seconds_bucket{le="0.1"} 1' in text
    assert 'latency_seconds_bucket{le="1"} 2' in text
    assert 'latency_seconds_bucket{le="+Inf"} 3' in text
    assert "latency_seconds_count 3" in text
    assert text.endswith("\n")


def test_registry_get_or_create_rejects_type_mismatch():
    registry = MetricsRegistry()
    counter = registry.counter("m", "A metric.")
    assert registry.counter("m", "A metric.") is counter
    with pytest.raises(ExperimentError):
        registry.gauge("m", "A metric.")


def test_prometheus_text_is_line_parseable():
    registry = MetricsRegistry()
    registry.counter("a_total", "A.").inc(kind="x y")
    registry.gauge("b", "B.").set(1.5)
    registry.histogram("c_seconds", "C.").observe(0.2)
    for line in registry.render().splitlines():
        assert line  # exposition format has no blank interior lines
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
            continue
        name_part, _, value = line.rpartition(" ")
        float(value)  # every sample value parses
        assert name_part


# ---------------------------------------------------------------------------
# progress arithmetic
# ---------------------------------------------------------------------------


def event(**kwargs):
    defaults = dict(scenario="s", done=0, total=4, elapsed=0.0)
    defaults.update(kwargs)
    return ProgressEvent(**defaults)


def test_cells_per_sec_guards_zero_progress_and_zero_elapsed():
    assert event(done=0, elapsed=1.0).cells_per_sec is None
    assert event(done=2, elapsed=0.0).cells_per_sec is None
    assert event(done=2, elapsed=4.0).cells_per_sec == 0.5


def test_eta_is_none_for_zero_progress_all_hit_waves():
    # The zero-progress tick of an all-cache-hit wave: no observed rate,
    # so no ETA — and certainly no ZeroDivisionError.
    tick = event(done=0, total=4, elapsed=0.0, cache_hits=4)
    assert tick.eta is None
    assert "eta" not in tick.render()


def test_eta_normal_and_terminal_values():
    assert event(done=2, total=4, elapsed=1.0).eta == pytest.approx(1.0)
    assert event(done=4, total=4, elapsed=1.0).eta == 0.0
    assert event(done=1, total=4, elapsed=2.0, kind="round", round_index=0,
                 wave_cells=1).eta is None


# ---------------------------------------------------------------------------
# service metrics plane + profile endpoint
# ---------------------------------------------------------------------------


def service_fixture(trace):
    from repro.bench.harness import BenchConfig
    from repro.service import JobManager, build_server

    config = BenchConfig(
        n_rows=512,
        min_exp_1d=-3,
        min_exp_2d=-2,
        pool_pages=32,
        join_rows=(64, 128),
        join_key_domain=256,
        trace=trace,
    )
    manager = JobManager(config, workers=1, queue_limit=4)
    server = build_server(manager)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}", manager, server


def test_service_metrics_and_profile_endpoints():
    base, manager, server = service_fixture(trace=True)
    try:
        payload = json.dumps({"scenario": "join"}).encode("utf-8")
        request = urllib.request.Request(
            base + "/maps",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as resp:
            job_id = json.loads(resp.read())["job_id"]
        manager.wait(job_id, timeout=120)

        with urllib.request.urlopen(base + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = resp.read().decode("utf-8")
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_jobs_submitted_total 1" in text
        assert 'repro_jobs_completed_total{state="done"} 1' in text
        assert "repro_job_seconds_count 1" in text
        assert "repro_queue_depth 0" in text
        for line in text.splitlines():
            if not line.startswith("#"):
                float(line.rpartition(" ")[2])

        with urllib.request.urlopen(base + f"/jobs/{job_id}/profile") as resp:
            raw = json.loads(resp.read())
        assert raw["traced"] is True
        assert raw["job"]["state"] == "done"
        for key in raw["profiles"]:
            parse_profile_key(key)  # every key addresses a (plan, cell)

        with urllib.request.urlopen(
            base + f"/jobs/{job_id}/profile?format=chrome"
        ) as resp:
            trace = json.loads(resp.read())
        assert trace["traceEvents"]

        with pytest.raises(urllib.error.HTTPError) as bad:
            urllib.request.urlopen(base + f"/jobs/{job_id}/profile?format=webp")
        assert bad.value.code == 400
    finally:
        server.shutdown()
        server.server_close()
        manager.close()


@pytest.mark.parametrize("state", ["done", "failed"])
def test_job_metrics_are_booked_before_the_terminal_state(state, monkeypatch):
    """A client woken by ``wait`` may scrape at once: the job is counted."""
    from repro.bench.harness import BenchConfig, BenchSession
    from repro.bench.requests import MapRequest
    from repro.service import JobManager

    if state == "failed":

        def refuse(self, request):
            raise ExperimentError("no map today")

        monkeypatch.setattr(BenchSession, "request_map", refuse)
    config = BenchConfig(
        n_rows=512, pool_pages=32, join_rows=(64, 128), join_key_domain=256
    )
    manager = JobManager(config, workers=1, queue_limit=4)
    try:
        completed_inc = manager._m_completed.inc

        def slow_inc(*args, **labels):
            time.sleep(0.2)
            completed_inc(*args, **labels)

        monkeypatch.setattr(manager._m_completed, "inc", slow_inc)
        job, _ = manager.submit(MapRequest("join"))
        assert manager.wait(job.job_id, timeout=120).state == state
        text = manager.metrics.render()
        assert f'repro_jobs_completed_total{{state="{state}"}} 1' in text
        assert "repro_jobs_in_flight 0" in text
        assert "repro_job_seconds_count 1" in text
    finally:
        manager.close()


def test_service_untraced_job_reports_traced_false():
    base, manager, server = service_fixture(trace=False)
    try:
        from repro.bench.requests import MapRequest

        job, _ = manager.submit(MapRequest("join"))
        manager.wait(job.job_id, timeout=120)
        with urllib.request.urlopen(base + f"/jobs/{job.job_id}/profile") as resp:
            raw = json.loads(resp.read())
        assert raw["traced"] is False and raw["profiles"] == {}
    finally:
        server.shutdown()
        server.server_close()
        manager.close()


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


def test_json_formatter_emits_parseable_records():
    import logging

    from repro.obs.logs import JsonFormatter, log_format

    record = logging.LogRecord(
        "repro.service", logging.WARNING, __file__, 1, "job %s failed", ("j1",), None
    )
    record.fields = {"job_id": "j1"}
    line = json.loads(JsonFormatter().format(record))
    assert line["level"] == "warning"
    assert line["logger"] == "repro.service"
    assert line["message"] == "job j1 failed"
    assert line["job_id"] == "j1"
    assert log_format({"REPRO_LOG_FORMAT": "json"}) == "json"
    assert log_format({}) == "plain"


def test_json_formatter_carries_the_traceback_of_a_logged_exception():
    import logging
    import sys

    from repro.obs.logs import JsonFormatter

    try:
        raise ValueError("boom")
    except ValueError:
        record = logging.LogRecord(
            "repro.service", logging.ERROR, __file__, 1, "job failed", (), sys.exc_info()
        )
    line = json.loads(JsonFormatter().format(record))
    assert line["exc_info"].splitlines()[-1] == "ValueError: boom"


def test_setup_logging_is_plain_by_default_and_replaces_its_own_handler(monkeypatch):
    import io
    import logging

    from repro.obs.logs import get_logger, setup_logging

    monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
    root = logging.getLogger("repro")
    saved = (root.level, root.propagate, list(root.handlers))
    try:
        setup_logging(stream=io.StringIO())
        stream = io.StringIO()
        setup_logging(stream=stream)  # again: one handler, the new one
        assert len(root.handlers) == len(saved[2]) + 1
        get_logger("service.jobs").warning("job %s failed", "j1")
        assert stream.getvalue().endswith(
            " WARNING repro.service.jobs: job j1 failed\n"
        )
    finally:
        root.level, root.propagate = saved[:2]
        root.handlers[:] = saved[2]
