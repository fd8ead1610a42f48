"""The progress stream of one sweep, as its consumers read it.

Every :class:`~repro.core.progress.ProgressEvent` a serial and a
two-worker pool sweep emit — dense and refined, without a cell store,
over an empty one and over a filled one — and the status ``GET
/jobs/<id>`` serves after each event of a refined service job.  Dense
streams are pinned event for event (pool chunks as a multiset: they
complete in any order).  In a refined sweep the cells done, the store
hits and the snapshot coverage only ever grow, across waves too, and
every snapshot holds the finished map's values.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, BenchSession, MapRequest
from repro.core import partition_cells
from repro.service import JobManager, build_server

JOIN = MapRequest("join")
REFINED = MapRequest("join", {"refine": True})
N_CELLS = 25  # the default 5x5 join grid
#: Two pool workers, four chunks each, dealt whole-row runs.
CHUNKS = [tuple(chunk) for chunk in partition_cells(range(N_CELLS), (5, 5), 2 * 4)]
STORES = ["none", "cold", "warm"]


def config(tmp_path, workers: int, store: str) -> BenchConfig:
    return BenchConfig(
        n_rows=512,
        pool_pages=32,
        n_workers=workers,
        cell_cache_dir=None if store == "none" else str(tmp_path / "cells"),
    )


def recorded(tmp_path, workers: int, store: str, request: MapRequest):
    """Every event of one sweep with a snapshot on each, and its map."""
    cfg = config(tmp_path, workers, store)
    if store == "warm":
        BenchSession(cfg).request_map(request)  # fills the store
    events: list = []
    session = BenchSession(cfg, progress=events.append, snapshot_every=1)
    return events, session.request_map(request)


def covered(event) -> set[int]:
    return set(np.flatnonzero(event.snapshot.measured_mask).tolist())


@pytest.mark.parametrize("store", STORES)
def test_dense_serial_stream_is_one_event_per_cell(tmp_path, store):
    events, _ = recorded(tmp_path, 0, store, JOIN)
    seen = [(e.kind, e.done, e.total, e.cache_hits, covered(e)) for e in events]
    if store == "warm":
        assert seen == [("cell", N_CELLS, N_CELLS, N_CELLS, set(range(N_CELLS)))]
        return
    hits = None if store == "none" else 0
    assert seen == [
        ("cell", done, N_CELLS, hits, set(range(done)))
        for done in range(1, N_CELLS + 1)
    ]


@pytest.mark.parametrize("store", STORES)
def test_dense_pool_stream_is_one_event_per_chunk(tmp_path, store):
    events, _ = recorded(tmp_path, 2, store, JOIN)
    if store == "warm":
        (event,) = events
        assert (event.kind, event.done, event.total, event.cache_hits) == (
            "chunk", N_CELLS, N_CELLS, N_CELLS,
        )
        assert (event.parts_done, event.parts_total) == (1, 1)
        assert covered(event) == set(range(N_CELLS))
        return
    hits = None if store == "none" else 0
    assert [(e.kind, e.total, e.cache_hits, e.parts_total) for e in events] == [
        ("chunk", N_CELLS, hits, len(CHUNKS))
    ] * len(CHUNKS)
    assert [e.parts_done for e in events] == list(range(1, len(CHUNKS) + 1))
    landed, before = [], set()
    for event in events:
        cells = covered(event)
        assert before < cells and event.done == len(cells)
        landed.append(tuple(sorted(cells - before)))
        before = cells
    assert sorted(landed) == sorted(CHUNKS)
    assert before == set(range(N_CELLS))


def assert_snapshot_holds_final_values(event, final) -> None:
    mask = event.snapshot.measured_mask
    for snap, done in (
        (event.snapshot.times, final.times),
        (event.snapshot.aborted, final.aborted),
    ):
        assert np.array_equal(snap[:, mask], done[:, mask], equal_nan=True)
    assert np.array_equal(event.snapshot.rows[mask], final.rows[mask])


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("store", STORES)
def test_refined_stream_never_goes_back(tmp_path, workers, store):
    events, final = recorded(tmp_path, workers, store, REFINED)
    assert final.meta["refine_rounds"] > 1
    assert [e.round_index for e in events if e.kind == "round"] == list(
        range(1, final.meta["refine_rounds"] + 1)
    )
    if store == "none":
        assert all(e.cache_hits is None for e in events)
    done, hits, cells = 0, 0, set()
    for event in events:
        assert event.done >= done
        assert (event.cache_hits or 0) >= hits
        assert covered(event) >= cells
        done, hits, cells = event.done, event.cache_hits or 0, covered(event)
        assert_snapshot_holds_final_values(event, final)
    measured = int(final.measured_mask.sum())
    assert done == len(cells) == measured
    assert hits == (measured if store == "warm" else 0)


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("store", ["cold", "warm"])
def test_refined_job_status_never_goes_back(tmp_path, monkeypatch, workers, store):
    cfg = config(tmp_path, workers, store)
    if store == "warm":
        BenchSession(cfg).request_map(REFINED)
    manager = JobManager(cfg, workers=1)
    server = build_server(manager)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    statuses: list[dict] = []
    real = JobManager._on_progress

    def polled(self, job, event):
        real(self, job, event)
        url = f"http://{host}:{port}/jobs/{job.job_id}"
        with urllib.request.urlopen(url) as resp:
            statuses.append(json.loads(resp.read()))

    monkeypatch.setattr(JobManager, "_on_progress", polled)
    try:
        job, _ = manager.submit(REFINED)
        finished = manager.wait(job.job_id, timeout=120)
        assert finished.state == "done"
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
    assert len(statuses) > 1
    for field in ("done", "measured_cells", "cache_hits"):
        values = [status[field] for status in statuses]
        assert values == sorted(values), (field, values)
    measured = int(finished.result.measured_mask.sum())
    assert statuses[-1]["measured_cells"] == statuses[-1]["done"] == measured
    assert statuses[-1]["cache_hits"] == (measured if store == "warm" else 0)
