"""Parallel sweep engine: chunking, merging, serial/parallel identity."""

import ctypes
import multiprocessing
import os
import resource
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cellstore import CellStore
from repro.core.driver import DenseGridPolicy, _row_runs, partition_cells
from repro.core.mapdata import MapData
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D, Space2D
from repro.core.progress import ProgressEvent
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import SinglePredicateScenario, TwoPredicateScenario
from repro.errors import ExperimentError
from repro.systems import SystemA, SystemConfig
from repro.workloads import LineitemConfig

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)
JITTER = Jitter(rel=0.02, abs=0.0005, seed=7)


def build_system_a():
    return [SystemA(CONFIG)]


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


# ---------------------------------------------------------------------------
# chunk partitioning
# ---------------------------------------------------------------------------


def test_partition_cells_covers_grid_disjointly():
    # The 13x8 sort-spill grid at two workers: a row is as long as the
    # part count, so every part gets whole rows, dealt from the last row
    # back in snake order — each dear row shares a part with a cheap one.
    parts = partition_cells(range(13 * 8), (13, 8), 8)
    rows = [sorted({flat // 8 for flat in part}) for part in parts]
    assert rows == [[12], [11], [10], [0, 9], [1, 8], [2, 7], [3, 6], [4, 5]]
    assert all(len(part) == 8 * len(row) for part, row in zip(parts, rows))
    assert sorted(c for part in parts for c in part) == list(range(13 * 8))
    # A 1-D grid is one row: near-equal contiguous chunks.
    chunks = partition_cells(range(13), (13,), 4)
    assert sorted(chunks) == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]


def test_partition_cells_clamps_chunk_count():
    assert partition_cells([0, 1, 2], (3,), 10) == [[2], [1], [0]]
    assert partition_cells(range(5), (5,), 1) == [[0, 1, 2, 3, 4]]
    assert partition_cells([3, 7], (3, 3), 8) == [[7], [3]]
    with pytest.raises(ExperimentError):
        partition_cells([], (2,), 2)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    n_parts=st.integers(1, 24),
    data=st.data(),
)
def test_partition_cells_deals_whole_row_runs(shape, n_parts, data):
    """Over 1-D to 3-D grids, part counts and scattered refine-wave
    subsets: every cell lands in exactly one part, no part is empty, and
    each part is whole runs that stay inside one row and are at most
    ``ceil(cells / parts)`` long."""
    n_cells = int(np.prod(shape))
    full = st.just(list(range(n_cells)))
    scattered = st.sets(st.integers(0, n_cells - 1), min_size=1).map(sorted)
    cells = data.draw(st.one_of(full, scattered))
    parts = partition_cells(cells, shape, n_parts)
    assert len(parts) == min(n_parts, len(cells))
    assert all(parts)
    assert sorted(c for part in parts for c in part) == cells
    assert all(part == sorted(part) for part in parts)
    runs = _row_runs(cells, shape[-1], len(parts))
    assert [c for run in runs for c in run] == cells
    longest = -(-len(cells) // len(parts))
    for run in runs:
        assert len({c // shape[-1] for c in run}) == 1
        assert len(run) <= longest
        assert sum(set(run) <= set(part) for part in parts) == 1


def contiguous_chunks(cells: list[int], n_parts: int) -> list[list[int]]:
    """Near-equal contiguous chunks, the longer ones first: the split the
    dealing is measured against."""
    chunks, start = [], 0
    for i in range(n_parts):
        size = len(cells) // n_parts + (i < len(cells) % n_parts)
        chunks.append(cells[start : start + size])
        start += size
    return chunks


@pytest.mark.parametrize(
    "shape",
    [(13, 8), (15, 15), (13, 13), (13, 5), (5, 5)],
    ids=["sort_spill", "join", "two_predicate", "memory_sweep", "cli_join"],
)
@pytest.mark.parametrize(
    "cost",
    [lambda f: f + 1, lambda f: (f + 1) ** 3, lambda f: 1.1**f],
    ids=["linear", "cubic", "exponential"],
)
def test_dealt_rows_balance_better_than_contiguous_chunks(shape, cost):
    """The service's grids at two workers' eight parts, under a cost that
    rises with the flat index: the dearest part costs less than the
    dearest contiguous chunk, which held the costliest rows alone."""
    cells = list(range(int(np.prod(shape))))

    def dearest(parts):
        return max(sum(cost(c) for c in part) for part in parts)

    assert dearest(partition_cells(cells, shape, 8)) < dearest(
        contiguous_chunks(cells, 8)
    )


# ---------------------------------------------------------------------------
# partial sweeps + merge round out to the full map
# ---------------------------------------------------------------------------


def test_partial_sweeps_merge_to_full_1d(system_a):
    space = Space1D.log2("sel", -4)
    sweep = RobustnessSweep([system_a], jitter=JITTER)
    scenario = SinglePredicateScenario([system_a], space)
    full = sweep.sweep(scenario)
    part_a = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 2, 4]))
    part_b = sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 3]))
    assert part_a.is_partial and part_b.is_partial
    assert part_a.filled_cells.tolist() == [0, 2, 4]
    merged = MapData.merge([part_a, part_b])
    assert not merged.is_partial
    assert merged.plan_ids == full.plan_ids
    assert np.array_equal(merged.times, full.times, equal_nan=True)
    assert np.array_equal(merged.aborted, full.aborted)
    assert np.array_equal(merged.rows, full.rows)
    assert merged.meta == full.meta


def test_shuffled_completion_order_merges_bit_identically(system_a):
    """Chunk parts arriving in any completion order yield one map.

    ``ParallelSweep`` sorts parts by first cell index before merging, so
    order-independence holds by construction; this exercises the same
    invariant at the MapData level with adversarial arrival orders.
    """
    import itertools

    space = Space1D.log2("sel", -4)
    sweep = RobustnessSweep([system_a], jitter=JITTER)
    scenario = SinglePredicateScenario([system_a], space)
    chunks = [[0, 1], [2], [3, 4]]
    parts = [
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=chunk))
        for chunk in chunks
    ]
    reference = MapData.merge(
        sorted(parts, key=lambda part: int(part.filled_cells[0]))
    )
    assert not reference.is_partial
    for order in itertools.permutations(parts):
        merged = MapData.merge(list(order))
        assert merged.plan_ids == reference.plan_ids
        assert np.array_equal(merged.times, reference.times, equal_nan=True)
        assert np.array_equal(merged.aborted, reference.aborted)
        assert np.array_equal(merged.rows, reference.rows)
        assert merged.meta == reference.meta


def test_partial_sweep_validates_cells(system_a):
    space = Space1D.log2("sel", -2)
    sweep = RobustnessSweep([system_a])
    scenario = SinglePredicateScenario([system_a], space)
    with pytest.raises(ExperimentError):
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=[0, 7]))
    with pytest.raises(ExperimentError):
        sweep.sweep(scenario, policy=DenseGridPolicy(cells=[1, 1]))


# ---------------------------------------------------------------------------
# parallel vs serial: bit-identical maps
# ---------------------------------------------------------------------------


def assert_identical(parallel: MapData, serial: MapData) -> None:
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times, equal_nan=True)
    assert np.array_equal(parallel.aborted, serial.aborted)
    assert np.array_equal(parallel.rows, serial.rows)
    assert np.array_equal(parallel.x_targets, serial.x_targets)
    assert np.array_equal(parallel.x_achieved, serial.x_achieved)
    assert parallel.meta == serial.meta


def test_parallel_2d_bit_identical_to_serial(system_a):
    space = Space2D.log2("a", "b", -3)
    serial = TwoPredicateScenario([system_a], space).run(jitter=JITTER)
    engine = ParallelSweep(build_system_a, jitter=JITTER, n_workers=2)
    parallel = engine.sweep(TwoPredicateScenario.build_spec(space.x, space.y))
    assert_identical(parallel, serial)
    assert np.array_equal(parallel.y_targets, serial.y_targets)
    assert np.array_equal(parallel.y_achieved, serial.y_achieved)


def test_parallel_1d_bit_identical_to_serial(system_a):
    space = Space1D.log2("sel", -4)
    serial = SinglePredicateScenario([system_a], space).run()
    engine = ParallelSweep(build_system_a, n_workers=2)
    parallel = engine.sweep(SinglePredicateScenario.build_spec(space))
    assert_identical(parallel, serial)


def test_parallel_serial_fallback_matches(system_a):
    space = Space1D.log2("sel", -3)
    serial = SinglePredicateScenario([system_a], space).run()
    engine = ParallelSweep(build_system_a, n_workers=0)
    fallback = engine.sweep(SinglePredicateScenario.build_spec(space))
    assert_identical(fallback, serial)


def test_parallel_empty_cell_policy_matches_serial(system_a):
    """No front door can hand in an empty cell list: both engines refuse
    one (it used to yield an all-NaN partial map by a path of its own)."""
    space = Space1D.log2("sel", -2)
    scenario = SinglePredicateScenario([system_a], space)
    with pytest.raises(ExperimentError, match="at least one cell"):
        RobustnessSweep([system_a]).sweep(scenario, policy=DenseGridPolicy(cells=[]))
    engine = ParallelSweep(build_system_a, n_workers=2)
    with pytest.raises(ExperimentError, match="at least one cell"):
        engine.sweep(scenario.spec(), policy=DenseGridPolicy(cells=[]))


def test_parallel_reports_chunk_progress():
    space = Space1D.log2("sel", -3)
    events = []
    engine = ParallelSweep(build_system_a, n_workers=2, progress=events.append)
    engine.sweep(SinglePredicateScenario.build_spec(space))
    assert events
    # Structured events, no string sniffing: every field is typed.
    assert all(isinstance(event, ProgressEvent) for event in events)
    assert all(event.kind == "chunk" for event in events)
    # Eight chunks for two workers, at most one per cell.
    assert [event.parts_done for event in events] == [1, 2, 3, 4]
    last = events[-1]
    assert last.done == last.total == 4
    assert last.elapsed >= 0.0
    # ... while the rendered line keeps the familiar shape.
    assert "sweep: 4/4 cells" in last.render()
    assert "eta" in events[0].render() or events[0].done == events[0].total


def test_all_cores_means_the_cpus_this_process_may_use(monkeypatch):
    """``-1`` reads the affinity mask: a run pinned to 2 of 64 CPUs forks
    2 workers, not 64; without a mask it falls back to the CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert ParallelSweep(build_system_a, n_workers=-1).resolved_workers() == 2
    assert ParallelSweep(build_system_a, n_workers=3).resolved_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ParallelSweep(build_system_a, n_workers=-1).resolved_workers() == 64


def test_a_pool_sweep_builds_its_providers_once_in_this_process(
    system_a, tmp_path
):
    """The factory runs once, here; the forked workers inherit what it
    returned (a factory that is called in a worker fails the sweep)."""
    here = os.getpid()
    calls = []

    def factory():
        if os.getpid() != here:
            raise AssertionError("a pool worker built its own providers")
        calls.append(here)
        return build_system_a()

    space = Space2D.log2("a", "b", -2)
    engine = ParallelSweep(
        factory, jitter=JITTER, n_workers=2, cell_store=CellStore(tmp_path)
    )
    parallel = engine.sweep(TwoPredicateScenario.build_spec(space.x, space.y))
    assert calls == [here]
    serial = TwoPredicateScenario([system_a], space).run(jitter=JITTER)
    assert_identical(parallel, serial)


def test_multi_round_pool_gets_every_worker(tmp_path, monkeypatch):
    """A refined sweep's first wave that misses the store can be one
    cell, and the pool it creates serves every later wave: sized to that
    wave, it would run each later eight-part wave on one process."""
    from repro.bench.harness import BenchConfig, BenchSession, MapRequest
    from repro.core import parallel

    made: list[int] = []
    real = parallel.ProcessPoolExecutor

    def recording(*args, **kwargs):
        made.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording)
    rows = tuple(int(round(256 * 2 ** (i / 2))) for i in range(9))
    base = dict(
        n_rows=2048, join_rows=rows, refine=True,
        cell_cache_dir=str(tmp_path), cache_dir=None,
    )
    BenchSession(BenchConfig(**base, refine_max_cells=24)).request_map(
        MapRequest("join")
    )
    events = []
    BenchSession(
        BenchConfig(**base, n_workers=2), progress=events.append
    ).request_map(MapRequest("join"))
    chunked = [e.parts_total for e in events if e.kind == "chunk"]
    assert chunked[0] == 1 and max(chunked) == 8  # a store-only first wave
    assert made == [2]


# ---------------------------------------------------------------------------
# duplicate plan id detection (dict-collision bugfix)
# ---------------------------------------------------------------------------


def test_duplicate_plan_ids_raise(system_a):
    twin = SystemA(CONFIG)  # same name -> identical qualified plan ids
    twins = [system_a, twin]
    with pytest.raises(ExperimentError, match="duplicate plan ids"):
        SinglePredicateScenario(twins, Space1D.log2("sel", -2)).run()
    with pytest.raises(ExperimentError, match="duplicate plan ids"):
        TwoPredicateScenario(twins, Space2D.log2("a", "b", -1)).run()


# ---------------------------------------------------------------------------
# what a pool worker does besides measuring: nothing
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched tree builder only when forked",
)
def test_pool_workers_inherit_the_index_trees_the_parent_built(
    monkeypatch, tmp_path
):
    """Three pool-swept maps over one session load each distinct
    secondary index tree once, in this process, before a pool forks:
    no worker sorts an index, the parent draws only the key columns,
    Systems B and C sort each composite key once between them, no
    process lays out a table, and no later sweep's pool does any of it
    again."""
    from repro.bench.harness import BenchConfig, BenchSession, MapRequest
    from repro.storage.table import SecondaryIndex

    log = tmp_path / "loads.txt"
    real = SecondaryIndex.tree.fget

    def recording(index):
        if not index._loaded:
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {id(index)}\n")
        return real(index)

    monkeypatch.setattr(SecondaryIndex, "tree", property(recording))
    # Column draws and clustered layouts (there must be none), by process.
    import repro.workloads.lineitem as lineitem
    from repro.storage.btree import BPlusTree

    made = tmp_path / "made.txt"

    def note(what):
        with made.open("a") as fh:
            fh.write(f"{os.getpid()} {what}\n")

    def drawing(real):
        def draw(*args):
            note("draw")
            return real(*args)

        return draw

    for name in ("uniform_column", "sequential_column"):
        monkeypatch.setattr(lineitem, name, drawing(getattr(lineitem, name)))
    real_load = BPlusTree.bulk_load

    def loading(tree, keys, payload, fill_factor=1.0):
        if tree.name.endswith(".clustered") and len(keys):
            note("layout")
        return real_load(tree, keys, payload, fill_factor)

    monkeypatch.setattr(BPlusTree, "bulk_load", loading)
    # Index layouts sorted: encoding the key columns is the sort's first
    # step, and nothing else encodes a whole column.
    from repro.storage.codec import CompositeKeyCodec

    real_encode = CompositeKeyCodec.encode

    def encoding(codec, columns):
        note("sort")
        return real_encode(codec, columns)

    monkeypatch.setattr(CompositeKeyCodec, "encode", encoding)
    session = BenchSession(
        BenchConfig(
            n_rows=4096, min_exp_1d=-6, min_exp_2d=-3, n_workers=2,
            cache_dir=None, cell_cache_dir=None,
        )
    )
    for name in ("single_predicate", "two_predicate", "estimation"):
        session.request_map(MapRequest(name))
    loads = [line.split() for line in log.read_text().splitlines()]
    distinct = {
        id(index)
        for system in session.systems.values()
        for index in system.table.indexes.values()
    }
    assert sorted(int(index) for _pid, index in loads) == sorted(distinct)
    assert {int(pid) for pid, _index in loads} == {os.getpid()}
    # No worker draws a column: the 3 key columns once, all in this
    # process; 5 sorts for the 7 trees (A's three keys, and the two
    # composite keys B and C share); and no process lays out a table,
    # whose data pages are arithmetic.
    assert len(distinct) == 7
    events = [line.split() for line in made.read_text().splitlines()]
    whats = [what for _pid, what in events]
    assert whats.count("draw") == 3
    assert whats.count("sort") == 5
    assert set(whats) <= {"draw", "sort"}
    assert {int(pid) for pid, _what in events} == {os.getpid()}


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched tree builder only when forked",
)
def test_a_pool_figure_run_cold_and_warm_lays_out_no_table(
    monkeypatch, tmp_path, capsys
):
    """A table's data pages are arithmetic: a cold figure run on a pool
    (whose parent materializes every table before it forks) and a
    store-warm rerun (whose budget yardstick scans System A) bulk-load
    index trees only, in any process."""
    from repro.bench import cli
    from repro.storage.btree import BPlusTree

    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    log = tmp_path / "loads.txt"
    real_load = BPlusTree.bulk_load

    def loading(tree, keys, payload, fill_factor=1.0):
        if len(keys):
            with log.open("a") as fh:
                fh.write(f"{tree.name}\n")
        return real_load(tree, keys, payload, fill_factor)

    monkeypatch.setattr(BPlusTree, "bulk_load", loading)
    flags = [
        "--rows", "2048", "--figures", "fig01,fig04", "--workers", "2",
        "--cell-cache", str(tmp_path / "cells"), "--quiet",
    ]
    loaded = {}
    for run in ("cold", "warm"):
        log.write_text("")
        assert cli.main([str(tmp_path / run), *flags]) in (0, 1)
        loaded[run] = log.read_text().split()
    capsys.readouterr()
    assert loaded["cold"] and all(
        name.startswith("lineitem.idx_") for name in loaded["cold"]
    )
    assert loaded["warm"] == []


def _mallopt_missing() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return True
    return False


def _churn_faults() -> int:
    """Allocate and free two 4 MiB arrays 50 times; the minor page
    faults that took after the first time."""

    def churn(times: int) -> None:
        for _ in range(times):
            first = np.ones(1 << 19)
            second = np.ones(1 << 19)
            del first, second

    churn(1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    churn(50)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(_mallopt_missing(), reason="the C library has no mallopt")
def test_a_pool_worker_reuses_freed_temporaries():
    """A worker started by the pool's initializer keeps freed multi-MiB
    blocks on its heap: allocating them again faults no page back in
    (glibc's defaults unmap or trim them at every free, ~75k faults)."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.parallel import _init_worker
    from repro.core.scenario import OperatorBench

    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=([OperatorBench()], {}),
    ) as pool:
        faults = pool.submit(_churn_faults).result()
    assert faults < 1024


_IMPORTING_THREAD = """
import importlib._bootstrap as bootstrap, sys, threading
from repro.bench.harness import BenchConfig, BenchSession, MapRequest

assert "numpy.ma" not in sys.modules
# Another thread of this process is importing numpy.ma: it holds the
# module's import lock for a while, then lets go.
lock = bootstrap._get_module_lock("numpy.ma")
held = threading.Event()

def importing():
    lock.acquire()
    held.set()
    threading.Event().wait(2.0)
    lock.release()

threading.Thread(target=importing).start()
held.wait()
config = BenchConfig(
    n_rows=16384, min_exp_2d=-6, n_workers=2, cache_dir=None, cell_cache_dir=None
)
BenchSession(config).request_map(MapRequest("two_predicate"))
print("swept")
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker inherits another thread's import lock",
)
def test_a_pool_forked_while_another_thread_imports_finishes():
    """The LRU kernel's ``np.isin`` imports ``numpy.ma`` on first use.  A
    worker forked while another thread held that module's import lock
    blocked forever on its first such call; the parent now imports it
    before it forks, so the workers import nothing and the sweep ends."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    process = subprocess.Popen(
        [sys.executable, "-c", _IMPORTING_THREAD],
        env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        out = b"hung"
    finally:
        # The workers share the script's process group; a hung one is
        # killed with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    assert out.strip() == b"swept"
