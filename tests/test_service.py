"""The map service: job manager, single-flight dedup, HTTP front-end."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
import weakref

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, BenchSession
from repro.bench.requests import MapRequest
from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent
from repro.errors import ExperimentError
from repro.service import JobManager, RejectedRequest, build_server


def tiny_config(tmp_path=None, **overrides):
    defaults = dict(
        n_rows=512,
        min_exp_1d=-3,
        min_exp_2d=-2,
        pool_pages=32,
        join_rows=(64, 128),
        join_key_domain=256,
    )
    if tmp_path is not None:
        defaults["cache_dir"] = str(tmp_path)
    defaults.update(overrides)
    return BenchConfig(**defaults)


JOIN = MapRequest("join")


def make_manager(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_limit", 4)
    return JobManager(tiny_config(), **kwargs)


# ---------------------------------------------------------------------------
# job manager
# ---------------------------------------------------------------------------


def test_job_runs_and_matches_direct_session():
    manager = make_manager()
    try:
        job, created = manager.submit(JOIN)
        assert created and job.job_id == JOIN.fingerprint(manager.config)
        finished = manager.wait(job.job_id, timeout=120)
        assert finished.state == "done"
        direct = BenchSession(tiny_config()).request_map(MapRequest("join"))
        assert np.array_equal(
            finished.result.times, direct.times, equal_nan=True
        )
        assert finished.result.meta == direct.meta
        status = manager.status(job)
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 4
        assert status["coverage"] == 1.0
    finally:
        manager.close()


def test_concurrent_identical_requests_share_one_sweep(monkeypatch):
    """The tentpole contract: same fingerprint -> one computation."""
    import repro.bench.harness as harness_module

    calls = []
    entered = threading.Event()
    release = threading.Event()
    real = harness_module.compute_map

    def slow_compute(session, definition):
        calls.append(definition.name)
        entered.set()
        assert release.wait(10)
        return real(session, definition)

    monkeypatch.setattr(harness_module, "compute_map", slow_compute)
    manager = make_manager()
    try:
        first, created_first = manager.submit(JOIN)
        assert created_first
        assert entered.wait(10)  # the job is mid-computation...
        second, created_second = manager.submit(JOIN)  # ...when we dedup
        assert not created_second
        assert second is first  # same job id, same Job object
        release.set()
        finished = manager.wait(first.job_id, timeout=120)
        assert finished.state == "done"
        assert calls == ["join"]  # exactly one sweep ran
        # Both submitters read byte-identical results: it IS one result.
        assert manager.get(first.job_id).result is finished.result
        assert manager.stats()["jobs"] == 1
        scraped = manager.metrics.render()
        assert "repro_jobs_submitted_total 1\n" in scraped
        assert "repro_jobs_deduplicated_total 1\n" in scraped
    finally:
        release.set()
        manager.close()


def test_full_queue_rejects_loudly(monkeypatch):
    import repro.bench.harness as harness_module

    release = threading.Event()
    full = BenchSession(tiny_config()).request_map(MapRequest("join"))  # before the patch

    def stuck_compute(session, definition):
        assert release.wait(10)
        return full

    monkeypatch.setattr(harness_module, "compute_map", stuck_compute)
    manager = JobManager(tiny_config(), workers=1, queue_limit=1)
    try:
        manager.submit(MapRequest("join"))  # occupies the worker
        time.sleep(0.1)
        manager.submit(MapRequest("join", {"seed": 1}))  # fills the queue
        with pytest.raises(RejectedRequest, match="queue is full"):
            manager.submit(MapRequest("join", {"seed": 2}))
        # Duplicate submissions still dedup even while the queue is full.
        job, created = manager.submit(MapRequest("join", {"seed": 1}))
        assert not created
    finally:
        release.set()
        manager.close()


def test_cell_budget_rejects_oversized_requests():
    manager = make_manager(cell_budget=4)
    try:
        manager.submit(JOIN)  # 2x2 fits
        with pytest.raises(RejectedRequest, match="over the service"):
            manager.submit(MapRequest("join", {"join_rows": (64, 96, 128)}))
        # A refinement budget caps the measurement, so the request fits.
        capped = MapRequest(
            "join",
            {"join_rows": (64, 96, 128), "refine": True, "refine_max_cells": 3},
        )
        job, created = manager.submit(capped)
        assert created and job.total == 3
    finally:
        manager.close()


def test_finished_refined_job_reports_only_its_measured_cells():
    """A refined job that stops short of the grid reports the cells it
    measured, not the grid: done, measured_cells, coverage and the
    completed-cells counter all follow the measured mask."""
    manager = make_manager()
    try:
        job, _ = manager.submit(
            MapRequest(
                "join",
                {
                    "join_rows": (64, 96, 128, 192, 256),
                    "refine": True,
                    "refine_max_cells": 6,
                },
            )
        )
        finished = manager.wait(job.job_id, timeout=120)
        assert finished.state == "done"
        measured = int(finished.result.measured_mask.sum())
        assert 0 < measured < 25
        status = manager.status(finished)
        assert (status["done"], status["total"]) == (measured, 25)
        assert status["measured_cells"] == measured
        assert status["coverage"] == measured / 25
        scraped = manager.metrics.render()
        assert f"repro_cells_completed_total {measured}\n" in scraped
    finally:
        manager.close()


def test_malformed_requests_fail_before_enqueue():
    manager = make_manager()
    try:
        with pytest.raises(ExperimentError, match="unknown config knob"):
            manager.submit(MapRequest("join", {"nope": 1}))
        assert manager.stats()["jobs"] == 0
    finally:
        manager.close()


def test_manager_refuses_a_snapshot_interval_its_jobs_would_die_on():
    with pytest.raises(ExperimentError, match="snapshot_every must be >= 1"):
        JobManager(tiny_config(), snapshot_every=0)


@pytest.mark.parametrize(
    "flag", ["--snapshot-every", "--service-workers", "--queue-limit"]
)
def test_serve_reports_a_refused_flag_as_a_usage_error(
    flag, monkeypatch, capsys
):
    import repro.service
    from repro.bench.cli import main

    def served(manager, **kwargs):
        manager.close()
        raise AssertionError(f"serve started with {flag} 0")

    monkeypatch.setattr(repro.service, "serve", served)
    with pytest.raises(SystemExit) as refused:
        main(["serve", flag, "0"])
    assert refused.value.code == 2
    assert "serve: error: " in capsys.readouterr().err


def test_partial_snapshots_flow_to_partial_map(monkeypatch):
    """Mid-flight, partial_map serves the sweep's latest snapshot."""
    import repro.bench.harness as harness_module

    full = BenchSession(tiny_config()).request_map(MapRequest("join"))
    partial_dict = full.to_dict()
    partial_dict["meta"] = dict(partial_dict["meta"], cells=[0, 2])
    snapshot = MapData.from_dict(partial_dict)
    emitted = threading.Event()
    release = threading.Event()

    def snapshotting_compute(session, definition):
        session.progress(
            ProgressEvent(
                scenario="join",
                done=2,
                total=4,
                elapsed=0.1,
                snapshot=snapshot,
            )
        )
        emitted.set()
        assert release.wait(10)
        return full

    monkeypatch.setattr(harness_module, "compute_map", snapshotting_compute)
    manager = make_manager(workers=1)
    try:
        job, _ = manager.submit(JOIN)
        assert emitted.wait(10)
        mid, partial = manager.partial_map(job)
        assert partial and mid is snapshot
        assert mid.filled_cells.tolist() == [0, 2]
        status = manager.status(job)
        assert status["state"] == "running"
        assert status["measured_cells"] == 2
        assert status["done"] == 2 and status["total"] == 4
        release.set()
        manager.wait(job.job_id, timeout=30)
        final, partial = manager.partial_map(job)
        assert not partial and final is full
    finally:
        release.set()
        manager.close()


def test_serial_snapshots_are_strict_submasks_of_final_map():
    """Every streamed snapshot: a subset of cells, bit-equal values."""
    snapshots = []

    def progress(event):
        if event.snapshot is not None:
            snapshots.append(event.snapshot)

    session = BenchSession(tiny_config(), progress=progress, snapshot_every=1)
    final = session.request_map(MapRequest("join"))
    total = final.times[0].size
    assert snapshots, "snapshot_every=1 must stream snapshots"
    sizes = [int(snap.measured_mask.sum()) for snap in snapshots]
    assert sizes == sorted(sizes)  # monotone coverage
    assert any(0 < size < total for size in sizes)  # strict submask seen
    assert sizes[-1] == total
    for snap in snapshots:
        assert snap.is_partial or int(snap.measured_mask.sum()) == total
        assert snap.plan_ids == final.plan_ids
        mask = snap.measured_mask
        for k in range(len(final.plan_ids)):
            assert np.array_equal(
                snap.times[k][mask], final.times[k][mask], equal_nan=True
            )
            assert np.array_equal(snap.aborted[k][mask], final.aborted[k][mask])


def test_whole_map_cache_hit_is_flagged(tmp_path):
    config = tiny_config(tmp_path)
    cold = JobManager(config, workers=1, queue_limit=2)
    try:
        job, _ = cold.submit(JOIN)
        first = cold.wait(job.job_id, timeout=120)
        assert first.cache_hit is False
    finally:
        cold.close()
    warm = JobManager(config, workers=1, queue_limit=2)
    try:
        job, created = warm.submit(JOIN)
        assert created  # fresh manager, fresh books...
        finished = warm.wait(job.job_id, timeout=30)
        assert finished.state == "done"
        assert finished.cache_hit is True  # ...but the disk had the map
        assert finished.events == 0
        assert finished.result.to_dict() == first.result.to_dict()
    finally:
        warm.close()


def test_manager_reads_the_store_once_for_all_its_jobs(tmp_path, decoded):
    config = tiny_config(cell_cache_dir=str(tmp_path / "cells"))
    requests = [MapRequest("join", {"seed": seed}) for seed in (1, 2, 3)]
    # Each map measured by a fresh session of its own, filling the store.
    fresh = [BenchSession(config).request_map(request) for request in requests]
    n_lines = sum(
        len(shard.read_bytes().splitlines())
        for shard in (tmp_path / "cells").glob("cells-*.jsonl")
    )
    del decoded[:]  # what filling the store read is not the manager's
    manager = JobManager(config, workers=2, queue_limit=4)
    try:
        jobs = [manager.submit(request)[0] for request in requests]
        for job, expected in zip(jobs, fresh):
            finished = manager.wait(job.job_id, timeout=120)
            assert finished.state == "done"
            assert finished.cache_hits == finished.total == 4  # all replayed
            assert finished.result.to_dict() == expected.to_dict()
    finally:
        manager.close()
    # Three jobs, two worker threads, one scan: every line decoded once.
    assert len(decoded) == n_lines == 3 * 4 * len(fresh[0].plan_ids)


def test_multi_wave_job_reports_every_wave_s_store_hits(tmp_path):
    """A refined sweep takes cells from the store wave by wave; the job
    and the metric count all of them, not the last wave's."""
    defaults = BenchConfig()  # the full-size join grid has cliffs to refine
    config = tiny_config(
        cell_cache_dir=str(tmp_path / "cells"),
        join_rows=defaults.join_rows,
        join_key_domain=defaults.join_key_domain,
    )
    request = MapRequest("join", {"refine": True})
    BenchSession(config).request_map(request)  # fills the store
    manager = JobManager(config, workers=1)
    try:
        job, _ = manager.submit(request)
        finished = manager.wait(job.job_id, timeout=120)
        measured = int(finished.result.measured_mask.sum())
        assert finished.result.meta["refine_rounds"] > 1
        assert manager.cell_store.stats()["cell_hits"] == measured
        assert manager.status(finished)["cache_hits"] == measured
        assert f"repro_cell_store_hits_total {measured}" in manager.metrics.render()
    finally:
        manager.close()


def recorded_sessions(monkeypatch):
    """Weak references to every session a job manager opens from now on."""
    sessions = []

    class Recorded(BenchSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(weakref.ref(self))

    monkeypatch.setattr("repro.service.jobs.BenchSession", Recorded)
    return sessions


def test_close_frees_what_retired_managers_built(monkeypatch):
    """An estimation job answers ``/choice`` from its result and keeps the
    choice maps, not the session or the System A they were computed over:
    reference counting has freed the session before the manager closes."""
    import gc

    sessions = recorded_sessions(monkeypatch)
    manager = make_manager(workers=1)
    gc.disable()
    try:
        job, _ = manager.submit(MapRequest("estimation"))
        finished = manager.wait(job.job_id, timeout=120)
        choices = manager.choice_maps(finished)
        assert choices is manager.choice_maps(finished)  # kept on the job
        assert [ref() for ref in sessions] == [None]
    finally:
        gc.enable()
        manager.close()
    direct = BenchSession(tiny_config()).choice_maps()
    assert {name: c.to_dict() for name, c in choices.items()} == {
        name: c.to_dict() for name, c in direct.items()
    }


def test_finished_job_holds_no_session_and_no_snapshot(monkeypatch):
    """A finished job answers from its result: the session it ran on
    (tables included) is freed by reference counting alone once the sweep
    returns, and the last progress snapshot goes with it."""
    import gc

    sessions = recorded_sessions(monkeypatch)
    manager = make_manager(workers=1)
    gc.disable()
    try:
        for request in (JOIN, MapRequest("estimation")):
            job, _ = manager.submit(request)
            finished = manager.wait(job.job_id, timeout=120)
            assert finished.state == "done" and finished.events > 0
            assert finished.snapshot is None and not hasattr(finished, "session")
        assert [ref() for ref in sessions] == [None, None]
    finally:
        gc.enable()
        manager.close()


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
def test_dropped_sessions_and_closed_managers_free_their_tables(
    tmp_path, monkeypatch, workers
):
    """No table is part of a reference cycle (an index keeps its key
    columns, not its table; a deferred scan result's thunks do not reach
    the result), so reference counting alone frees every table a dropped
    session or a closed manager built — the pool's parent-side providers
    for the store included — and ``close`` needs no garbage collection."""
    import gc

    from repro.storage.table import Table

    tables = []
    real = Table.__init__

    def recorded(self, *args, **kwargs):
        real(self, *args, **kwargs)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(Table, "__init__", recorded)
    config = tiny_config(
        n_workers=workers, cell_cache_dir=str(tmp_path / "cells")
    )
    request = MapRequest("two_predicate")
    gc.disable()
    try:
        session = BenchSession(config)
        session.request_map(request)
        del session
        assert tables and [ref() for ref in tables] == [None] * len(tables)
        tables.clear()
        manager = JobManager(config, workers=1)
        job, _ = manager.submit(MapRequest("two_predicate", {"seed": 7}))
        assert manager.wait(job.job_id, timeout=120).state == "done"
        manager.close()
        assert tables and [ref() for ref in tables] == [None] * len(tables)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------


@pytest.fixture()
def service():
    manager = make_manager()
    server = build_server(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    server.shutdown()
    server.server_close()
    manager.close()


def _get(base, path):
    with urllib.request.urlopen(base + path) as resp:
        return resp.status, json.loads(resp.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as resp:
        return resp.status, json.loads(resp.read())


def test_http_submit_poll_result_render(service):
    base, manager = service
    code, listing = _get(base, "/scenarios")
    assert code == 200
    assert {entry["name"] for entry in listing["scenarios"]} >= {
        "join",
        "estimation",
    }
    assert "n_rows" in listing["knobs"] and "cache_dir" not in listing["knobs"]

    code, submitted = _post(base, "/maps", {"scenario": "join"})
    assert code == 202 and submitted["created"]
    job_id = submitted["job_id"]

    # Identical submission -> 202, same job id, created: false.
    code, duplicate = _post(base, "/maps", {"scenario": "join"})
    assert code == 202
    assert duplicate["job_id"] == job_id and not duplicate["created"]

    code, status = _get(base, f"/jobs/{job_id}?wait=120")
    assert code == 200 and status["state"] == "done"
    assert status["done"] == status["total"] == 4

    # The other spelling of a name is the same request: one job, no rerun.
    code, spelled = _post(base, "/maps", {"scenario": "sort-spill"})
    assert code == 202 and spelled["created"]
    assert spelled["job_id"].startswith("sort_spill-")
    code, respelled = _post(base, "/maps", {"scenario": "sort_spill"})
    assert code == 202
    assert respelled["job_id"] == spelled["job_id"]
    assert not respelled["created"]

    code, result = _get(base, f"/jobs/{job_id}/result")
    assert code == 200 and result["partial"] is False
    direct = BenchSession(tiny_config()).request_map(MapRequest("join"))
    # The served JSON is byte-identical to a direct session's map.
    assert json.dumps(result["map"], sort_keys=True) == json.dumps(
        direct.to_dict(), sort_keys=True
    )

    code, partial = _get(base, f"/jobs/{job_id}/partial")
    assert code == 200 and partial["partial"] is False

    svg = urllib.request.urlopen(base + f"/jobs/{job_id}/render/join.merge.svg")
    assert svg.headers["Content-Type"] == "image/svg+xml"
    assert svg.read().lstrip().startswith(b"<svg")
    png = urllib.request.urlopen(base + f"/jobs/{job_id}/render/join.merge.png")
    assert png.headers["Content-Type"] == "image/png"
    assert png.read()[:8] == b"\x89PNG\r\n\x1a\n"


def test_http_error_statuses(service):
    base, manager = service

    def status_of(method, path, payload=None):
        try:
            if payload is None:
                urllib.request.urlopen(base + path)
            else:
                _post(base, path, payload)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())["error"]
        return 200, ""

    assert status_of("POST", "/maps", {"scenario": "bogus"})[0] == 400
    assert status_of("POST", "/maps", {"scenario": "join", "overides": {}})[0] == 400
    code, message = status_of(
        "POST", "/maps", {"scenario": "join", "overrides": {"cache_dir": "x"}}
    )
    assert code == 400 and "operator-controlled" in message
    assert status_of("GET", "/jobs/nope")[0] == 404
    assert status_of("GET", "/nope")[0] == 404

    # A queued-but-unfinished job answers 409 on /result.
    code, submitted = _post(
        base, "/maps", {"scenario": "join", "overrides": {"seed": 99}}
    )
    job_id = submitted["job_id"]
    codes = {status_of("GET", f"/jobs/{job_id}/result")[0]}
    assert codes <= {200, 409}
    manager.wait(job_id, timeout=120)
    assert status_of("GET", f"/jobs/{job_id}/render/not-a-plan.svg")[0] == 404
    assert status_of("GET", f"/jobs/{job_id}/render/join.merge.webp")[0] == 400


def test_http_render_404_is_an_unknown_plan_400_a_bad_rendering(service):
    base, manager = service
    job, _ = manager.submit(MapRequest.from_dict({"scenario": "single_predicate"}))
    manager.wait(job.job_id, timeout=120)
    plan = job.result.plan_ids[0]

    def render_status(leaf):
        try:
            urllib.request.urlopen(base + f"/jobs/{job.job_id}/render/{leaf}")
        except urllib.error.HTTPError as error:
            return error.code
        return 200

    assert render_status(f"{plan}.svg") == 200
    # The plan is the resource: absent -> 404, whatever else is wrong.
    assert render_status("not-a-plan.svg") == 404
    assert render_status("not-a-plan.webp") == 404
    # A plan the map has, asked for in a way it cannot be drawn -> 400.
    assert render_status(f"{plan}.webp") == 400
    assert render_status(f"{plan}.png") == 400  # 1-D maps are SVG curves
    assert render_status("svg") == 400  # no <plan>. prefix


@pytest.mark.parametrize("length", ["abc", "-5", "-1"])
def test_http_bad_content_length_is_a_400(service, length):
    base, manager = service
    host, port = base.removeprefix("http://").split(":")
    # -1 used to reach rfile.read(-1), which waits for the client to hang
    # up: the client's timeout is what fails the test then.
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(
            b"POST /maps HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert repr(length) in json.loads(body)["error"]
    assert manager.stats()["jobs"] == 0
    # The server is still there for the next connection.
    code, submitted = _post(base, "/maps", {"scenario": "join"})
    assert code == 202 and submitted["created"]


@pytest.mark.parametrize(
    "overrides, knob",
    [
        ({"join_rows": [512, "x"]}, "join_rows"),
        ({"n_rows": "4096"}, "n_rows"),
        ({"seed": "abc"}, "seed"),
        ({"n_rows": True}, "n_rows"),
        # Well-typed but out of range: these used to be queued and die
        # in the worker (a 500 from /result).
        ({"n_rows": 0}, "n_rows"),
        ({"n_rows": -5}, "n_rows"),
        ({"pool_pages": 0}, "pool_pages"),
        ({"refine": True, "refine_max_cells": -5}, "refine_max_cells"),
        # Numbers no sweep can run with: these were queued too, and died
        # in the worker or finished with every plan censored.  (json.loads
        # reads the NaN and Infinity literals.)
        ({"budget_scale": float("nan")}, "budget_scale"),
        ({"error_magnitudes": [float("inf")]}, "error_magnitudes"),
        ({"join_memory_bytes": 0}, "join_memory_bytes"),
        ({"sort_row_bytes": 0}, "sort_row_bytes"),
        ({"join_key_domain": 0}, "join_key_domain"),
        ({"budget_scale": -1}, "budget_scale"),
        # A grid that would start above 2^0: queued, and died in the worker.
        ({"min_exp_1d": 2}, "min_exp_1d"),
        ({"min_exp_2d": 1}, "min_exp_2d"),
    ],
)
def test_http_mistyped_override_is_a_400_and_queues_nothing(
    service, overrides, knob
):
    base, manager = service
    with pytest.raises(urllib.error.HTTPError) as refused:
        _post(
            base, "/maps",
            {"scenario": "single_predicate", "overrides": overrides},
        )
    assert refused.value.code == 400
    assert f"knob {knob!r}" in json.loads(refused.value.read())["error"]
    assert manager.stats()["jobs"] == 0
    assert "repro_jobs_submitted_total 0\n" in manager.metrics.render()


def test_http_failed_job_is_a_500_and_may_be_resubmitted(service, monkeypatch):
    """A sweep that dies in its worker leaves a ``failed`` job: ``/result``
    says why with a 500, the worker lives on, and the same request
    submitted again is a new job."""
    import repro.bench.harness as harness_module

    base, manager = service
    real = harness_module.compute_map

    def dying_compute(session, definition):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(harness_module, "compute_map", dying_compute)
    _, submitted = _post(base, "/maps", {"scenario": "join"})
    assert manager.wait(submitted["job_id"], timeout=30).state == "failed"
    with pytest.raises(urllib.error.HTTPError) as failed:
        _get(base, f"/jobs/{submitted['job_id']}/result")
    assert failed.value.code == 500
    assert json.loads(failed.value.read())["error"] == "RuntimeError: disk on fire"
    assert 'repro_jobs_completed_total{state="failed"} 1' in manager.metrics.render()
    monkeypatch.setattr(harness_module, "compute_map", real)
    code, again = _post(base, "/maps", {"scenario": "join"})
    assert code == 202 and again["created"]
    assert manager.wait(again["job_id"], timeout=120).state == "done"


def test_http_rejections_are_429(monkeypatch):
    import repro.bench.harness as harness_module

    release = threading.Event()
    full = BenchSession(tiny_config()).request_map(MapRequest("join"))  # before the patch

    def stuck_compute(session, definition):
        assert release.wait(10)
        return full

    monkeypatch.setattr(harness_module, "compute_map", stuck_compute)
    manager = JobManager(
        tiny_config(), workers=1, queue_limit=1, cell_budget=4
    )
    server = build_server(manager)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        _post(base, "/maps", {"scenario": "join"})
        time.sleep(0.1)
        _post(base, "/maps", {"scenario": "join", "overrides": {"seed": 1}})
        with pytest.raises(urllib.error.HTTPError) as full:
            _post(base, "/maps", {"scenario": "join", "overrides": {"seed": 2}})
        assert full.value.code == 429
        with pytest.raises(urllib.error.HTTPError) as over:
            _post(
                base,
                "/maps",
                {"scenario": "join", "overrides": {"join_rows": [64, 96, 128]}},
            )
        assert over.value.code == 429
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        manager.close()
