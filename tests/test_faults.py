"""What really happens to the stores and the process pool: faults
injected on purpose."""

import fcntl
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.bench import cli
from repro.bench.harness import BenchConfig
from repro.core.cellstore import CellStore, measurement_key
from repro.service import JobManager

RECORD = {"s": 1.0, "a": False, "r": 1}


def test_append_after_a_torn_write_keeps_old_and_new_records(tmp_path, caplog):
    """A writer killed mid-append leaves half a line.  The next append
    starts on a fresh line, so the fragment is one corrupt line — skipped,
    counted, logged — and every record before and after it still answers;
    glued onto the fragment, the new record was lost and every later
    process refused the store."""
    old, new = (measurement_key({"k": k}) for k in ("old", "new"))
    while old[0] != new[0]:  # the two must share a shard
        new = measurement_key({"k": new})
    CellStore(tmp_path).put_many([(old, RECORD)])
    shard = next(tmp_path.glob("cells-*.jsonl"))
    whole = shard.read_bytes()
    with shard.open("ab") as fh:
        fh.write(whole[: len(whole) // 2])  # killed here
    writer = CellStore(tmp_path)
    assert writer.get(old) == RECORD and writer.corrupt_lines == 0  # a tail, so far
    writer.put_many([(new, {**RECORD, "s": 2.0})])
    for store in (writer, CellStore(tmp_path)):
        store.refresh()
        assert store.get(old) == RECORD
        assert store.get(new) == {**RECORD, "s": 2.0}
        assert store.corrupt_lines == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"corrupt cell-store shard {shard} (line 2): skipped; "
        "compact() drops damaged entries"
    ] * 2
    assert writer.compact() == {"kept": 2, "superseded": 0, "corrupt": 1}
    assert CellStore(tmp_path).corrupt_lines == 0


def test_a_damaged_store_is_counted_on_every_front_door(tmp_path, capsys):
    """The CLI's summary line and the service's ``/metrics`` say how many
    lines were skipped; the maps are those of an undamaged store."""
    cells = tmp_path / "cells"
    flags = ["--scenario", "join", "--rows", "512", "--cell-cache", str(cells), "--quiet"]
    assert cli.main([str(tmp_path / "cold"), *flags]) == 0
    assert "corrupt" not in capsys.readouterr().out
    torn = sorted(cells.glob("cells-*.jsonl"))[:2]
    for shard in torn:
        with shard.open("ab") as fh:
            fh.write(b'{"k": "torn')
    assert cli.main([str(tmp_path / "warm"), *flags]) == 0
    out = capsys.readouterr().out
    assert "25/25 cells from store (100% hit rate)" in out
    assert out.rstrip().endswith("entries total")  # tails, not yet lines
    with torn[0].open("ab") as fh:
        fh.write(b"\n")
    assert cli.main([str(tmp_path / "again"), *flags]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", 1 corrupt lines skipped")
    assert (tmp_path / "again" / "scenario_join.json").read_bytes() == (
        tmp_path / "cold" / "scenario_join.json"
    ).read_bytes()

    manager = JobManager(BenchConfig(n_rows=512, cell_cache_dir=str(cells)), workers=1)
    try:
        assert "repro_cellstore_corrupt_lines_total 0\n" in manager.metrics.render()
        len(manager.cell_store)  # the first read is the scan
        assert "repro_cellstore_corrupt_lines_total 1\n" in manager.metrics.render()
    finally:
        manager.close()


def test_an_append_while_compact_replaces_its_shard_is_kept(tmp_path, monkeypatch):
    """``compact()`` reads a shard, then renames the rewrite over it.  A
    second writer that appended in between wrote to the inode the rename
    unlinks, and its records were gone; under the store lock the append
    waits for the compaction and lands in the new shard.  The hook at the
    rename lets the writer run until it has either appended or reached
    the lock — an interleaving, not a race."""
    compacting = CellStore(tmp_path)
    compacting.put_many([(measurement_key({"k": "old"}), RECORD)])
    (shard,) = tmp_path.glob("cells-*.jsonl")
    late = shard.name[len("cells-")] + "0" * 31  # a key of that shard
    writer = CellStore(tmp_path)
    len(writer)  # loaded before the compaction starts
    appending = threading.Thread(target=writer.put_many, args=([(late, RECORD)],))
    at_lock = threading.Event()
    real_flock, real_replace = fcntl.flock, Path.replace

    def flock(fd, operation):
        if threading.current_thread() is appending:
            at_lock.set()
        return real_flock(fd, operation)

    def replace(self, target):
        if not appending.is_alive() and not at_lock.is_set():
            appending.start()
            while appending.is_alive() and not at_lock.wait(0.01):
                pass
        return real_replace(self, target)

    monkeypatch.setattr(fcntl, "flock", flock)
    monkeypatch.setattr(Path, "replace", replace)
    compacting.compact()
    appending.join(timeout=30)
    assert not appending.is_alive()
    assert CellStore(tmp_path).get(late) == RECORD


def test_a_process_forked_while_the_store_is_locked_does_not_keep_it(tmp_path):
    """A pool worker forked by one sweep while another sweep of the same
    process appends inherits the lock's descriptor.  The lock is released
    explicitly, so the next append need not wait for that worker to exit
    (closing the descriptor alone left it held: two pool jobs of one
    service deadlocked)."""
    store = CellStore(tmp_path)
    with store._exclusive():
        worker = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,)
        )
        worker.start()
    try:
        fd = os.open(tmp_path, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # free, or raises
        finally:
            os.close(fd)
    finally:
        worker.terminate()
        worker.join(timeout=30)


def test_a_pool_worker_killed_mid_wave_fails_its_job_and_not_the_next(monkeypatch):
    """SIGKILL one worker of a running pool job as its first chunk lands
    (seven are still pending): the job ends ``failed`` with the pool's
    ``BrokenProcessPool`` message, the resubmitted job gets a fresh pool
    and finishes with the serial map, and no thread or process is left."""
    from repro.bench.harness import BenchSession, MapRequest
    from repro.core import parallel

    pools: list = []
    real_pool = parallel.ProcessPoolExecutor

    def recording(*args, **kwargs):
        pools.append(real_pool(*args, **kwargs))
        return pools[-1]

    killed: list[int] = []
    real_progress = JobManager._on_progress

    def kill_a_worker_once(self, job, event):
        if not killed:
            (victim, *_) = set(multiprocessing.active_children()) - before
            os.kill(victim.pid, signal.SIGKILL)
            killed.append(victim.pid)
        real_progress(self, job, event)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording)
    monkeypatch.setattr(JobManager, "_on_progress", kill_a_worker_once)
    config = BenchConfig(n_rows=4096, n_workers=2, cell_cache_dir=None, cache_dir=None)
    before = set(multiprocessing.active_children())
    manager = JobManager(config, workers=1)
    try:
        job, _ = manager.submit(MapRequest("join"))
        failed = manager.wait(job.job_id, timeout=60)
        assert failed.state == "failed" and killed
        assert failed.error.startswith("BrokenProcessPool: ")
        retry, created = manager.submit(MapRequest("join"))
        assert created
        done = manager.wait(retry.job_id, timeout=60)
        assert done.state == "done", done.error
    finally:
        manager.close(timeout=30)
    assert len(pools) == 2
    assert not any(thread.is_alive() for thread in manager._threads)
    assert set(multiprocessing.active_children()) <= before
    serial = BenchSession(BenchConfig(n_rows=4096, cell_cache_dir=None, cache_dir=None))
    assert done.result.to_dict() == serial.request_map(MapRequest("join")).to_dict()


WRITER = """
import sys, time
from pathlib import Path
from repro.core.cellstore import CellStore
directory, name = sys.argv[1], sys.argv[2]
store = CellStore(directory)
while not (Path(directory) / "go").exists():
    time.sleep(0.001)
for i in range(150):
    store.put_many([(f"{i % 16:x}{name}{i:030d}", {"s": float(i), "a": False, "r": 1})])
    if i % 3 == 0:
        store.compact()
"""


def test_two_writer_processes_on_one_store_lose_nothing(tmp_path):
    """Two processes append and compact one store at once: every record
    either wrote is there afterwards (a compaction used to replace shards
    under the other's appends)."""
    store_dir = tmp_path / "cells"
    store_dir.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(store_dir), name],
            env={"PYTHONPATH": src},
        )
        for name in ("a", "b")
    ]
    (store_dir / "go").touch()
    assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
    store = CellStore(store_dir)
    assert len(store) == 2 * 150 and store.corrupt_lines == 0
    assert sorted(path.name for path in store_dir.iterdir()) == sorted(
        ["go"] + [f"cells-{d:x}.jsonl" for d in range(16)]
    )


LOOPING_WRITER = """
import sys
from repro.core.cellstore import CellStore
store = CellStore(sys.argv[1])
for i in range(1_000_000):
    store.put_many(
        [(f"{j % 16:x}d{i:024d}{j:06d}", {"s": float(i), "a": False, "r": 1})
         for j in range(64)]
    )
"""


def test_a_writer_killed_mid_append_neither_blocks_nor_loses_the_next(tmp_path):
    """SIGKILL a process that loops ``put_many`` on a store, then append
    from a second process: its ``flock`` died with it, so the second
    writer does not wait; the store loads with at most one corrupt line
    (the killed append), holds every record the second writer wrote, and
    ``compact()`` leaves no corrupt line."""
    store_dir = tmp_path / "cells"
    store_dir.mkdir()
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    looping = subprocess.Popen(
        [sys.executable, "-c", LOOPING_WRITER, str(store_dir)], env=env
    )
    try:
        deadline = time.monotonic() + 60
        while sum(p.stat().st_size for p in store_dir.glob("cells-*.jsonl")) < 1 << 16:
            assert time.monotonic() < deadline and looping.poll() is None
            time.sleep(0.005)
    finally:
        looping.send_signal(signal.SIGKILL)
        looping.wait(timeout=30)
    assert looping.returncode == -signal.SIGKILL
    (store_dir / "go").touch()  # WRITER waits for it before it appends
    second = subprocess.run(
        [sys.executable, "-c", WRITER, str(store_dir), "e"], env=env, timeout=120
    )
    assert second.returncode == 0
    store = CellStore(store_dir)
    assert store.corrupt_lines <= 1
    for i in range(150):
        key = f"{i % 16:x}e{i:030d}"
        assert store.get(key) == {"s": float(i), "a": False, "r": 1}
    assert store.compact()["corrupt"] == store.corrupt_lines
    assert CellStore(store_dir).corrupt_lines == 0
