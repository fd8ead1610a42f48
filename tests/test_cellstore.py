"""Content-addressed cell store: warm == cold, key discipline, storage."""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchConfig, BenchSession, MapRequest
from repro.core.cellstore import (
    CellStore,
    SweepKeyer,
    lookup_cells,
    measurement_key,
    records_from_part,
)
from repro.core.driver import AdaptiveRefinePolicy, DenseGridPolicy
from repro.core.parallel import ParallelSweep
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import (
    JoinScenario,
    OperatorBench,
    SortSpillScenario,
    operator_bench_factory,
)
from repro.errors import ExperimentError

SORT_ROWS = (512, 1024, 2048, 4096)
SORT_MEM = (8 << 10, 16 << 10, 32 << 10)


def make_sort():
    return SortSpillScenario(
        OperatorBench(), SORT_ROWS, SORT_MEM, row_bytes=64, seed=3
    )


@pytest.fixture(scope="module")
def sort_budget():
    # Tight enough that the cheap-memory corner censors (abort coverage).
    return 30 * make_sort().baseline_seconds()


def put(store, key, record) -> int:
    return store.put_many([(key, record)])


def identical(a, b) -> bool:
    return (
        a.plan_ids == b.plan_ids
        and np.array_equal(a.times, b.times, equal_nan=True)
        and np.array_equal(a.aborted, b.aborted)
        and np.array_equal(a.rows, b.rows)
        and a.meta == b.meta
        and all(x.matches(y) for x, y in zip(a.axes, b.axes))
    )


# ---------------------------------------------------------------------------
# the store layer
# ---------------------------------------------------------------------------


def test_store_roundtrip_and_persistence(tmp_path):
    store = CellStore(tmp_path)
    key = measurement_key({"plan": "p", "coords": [["x", 0.5]]})
    assert store.get(key) is None
    assert put(store, key, {"s": 1.5, "a": False, "r": 7}) == 1
    assert store.get(key) == {"s": 1.5, "a": False, "r": 7}
    # A fresh instance rebuilds the index from the shards.
    reopened = CellStore(tmp_path)
    assert len(reopened) == 1
    assert reopened.get(key) == {"s": 1.5, "a": False, "r": 7}


def test_store_skips_identical_and_supersedes_differing(tmp_path):
    store = CellStore(tmp_path)
    key = measurement_key({"k": 1})
    assert put(store, key, {"s": 1.0, "a": False, "r": 1}) == 1
    assert put(store, key, {"s": 1.0, "a": False, "r": 1}) == 0  # no-op
    assert put(store, key, {"s": 2.0, "a": False, "r": 1}) == 1  # supersedes
    assert store.get(key) == {"s": 2.0, "a": False, "r": 1}
    assert CellStore(tmp_path).get(key) == {"s": 2.0, "a": False, "r": 1}


def test_corrupted_shard_garbage_line_raises(tmp_path, caplog):
    """It raised until PR 23; now the line is skipped, counted and logged."""
    store = CellStore(tmp_path)
    key = measurement_key({"k": 1})
    put(store, key, {"s": 1.0, "a": False, "r": 1})
    shard = next(tmp_path.glob("cells-*.jsonl"))
    with shard.open("a") as fh:
        fh.write("not json at all\n")
    reopened = CellStore(tmp_path)
    assert reopened.get(key) == {"s": 1.0, "a": False, "r": 1}
    assert reopened.corrupt_lines == reopened.stats()["corrupt_lines"] == 1
    (warning,) = caplog.records
    assert f"corrupt cell-store shard {shard} (line 2)" in warning.getMessage()


def test_corrupted_shard_digest_mismatch_raises(tmp_path):
    """It raised until PR 23; now the line answers nothing and is counted."""
    store = CellStore(tmp_path)
    key = measurement_key({"k": 1})
    put(store, key, {"s": 1.0, "a": False, "r": 1})
    shard = next(tmp_path.glob("cells-*.jsonl"))
    line = json.loads(shard.read_text().splitlines()[0])
    line["r"]["s"] = 99.0  # tamper with the record, keep the old digest
    shard.write_text(json.dumps(line) + "\n")
    reopened = CellStore(tmp_path)
    assert reopened.get(key) is None  # an unverified line answers nothing
    assert len(reopened) == 0 and reopened.corrupt_lines == 1


def test_compact_drops_superseded_and_corrupt(tmp_path):
    store = CellStore(tmp_path)
    keys = [measurement_key({"k": i}) for i in range(8)]
    store.put_many((k, {"s": 1.0, "a": False, "r": 1}) for k in keys)
    put(store, keys[0], {"s": 2.0, "a": False, "r": 1})  # supersede
    shard = next(tmp_path.glob("cells-*.jsonl"))
    with shard.open("a") as fh:
        fh.write('{"torn write\n')
    stats = CellStore(tmp_path).compact()
    assert stats == {"kept": 8, "superseded": 1, "corrupt": 1}
    # Compaction is the repair: the next load skips nothing.
    recovered = CellStore(tmp_path)
    assert len(recovered) == 8
    assert recovered.get(keys[0]) == {"s": 2.0, "a": False, "r": 1}
    assert recovered.compact()["superseded"] == 0
    assert recovered.corrupt_lines == 0


@settings(max_examples=25, deadline=None)
@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.fixed_dictionaries(
            {
                "s": st.one_of(
                    st.none(),
                    st.floats(
                        min_value=0.0,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
                "a": st.booleans(),
                "r": st.integers(min_value=0, max_value=1 << 40),
            }
        ),
        max_size=30,
    )
)
def test_store_roundtrip_property(tmp_path_factory, entries):
    directory = tmp_path_factory.mktemp("cells")
    keyed = {measurement_key({"n": n}): record for n, record in entries.items()}
    store = CellStore(directory)
    assert store.put_many(keyed.items()) == len(keyed)
    assert {k: store.get(k) for k in keyed} == keyed
    reopened = CellStore(directory)
    assert {k: reopened.get(k) for k in keyed} == keyed
    reopened.compact()
    assert {k: reopened.get(k) for k in keyed} == keyed


# ---------------------------------------------------------------------------
# one store per process: tailing other writers, foreign compaction, threads
# ---------------------------------------------------------------------------

RECORD = {"s": 1.0, "a": False, "r": 1}


def keys_of(*ns):
    return [measurement_key({"n": n}) for n in ns]


def test_lookup_tails_what_another_store_appended(tmp_path, sort_budget, decoded):
    def sweep(store, cells=None):
        engine = RobustnessSweep(
            [OperatorBench()], budget_seconds=sort_budget, cell_store=store
        )
        return engine.sweep(make_sort(), policy=DenseGridPolicy(cells=cells))

    cold = serial_map(sort_budget)
    ours = CellStore(tmp_path)
    sweep(ours, cells=range(6))  # 6 cells x 2 plans, appended by us
    assert ours.writes == 12 and decoded == []  # own appends are not re-read
    theirs = CellStore(tmp_path)
    sweep(theirs)  # another front door measures the other 6 cells
    assert (theirs.cell_hits, theirs.cell_misses, theirs.writes) == (6, 6, 12)
    del decoded[:]
    warm = sweep(ours)
    # Our next wave sees their cells, having decoded their lines only.
    assert (ours.cell_hits, ours.cell_misses) == (12, 6)
    assert len(decoded) == 12
    assert identical(warm, cold)
    sweep(ours)
    assert len(decoded) == 12  # nothing new on disk, nothing decoded


def test_unterminated_tail_waits_for_its_newline(tmp_path, decoded):
    key, other_key = keys_of(1, 2)
    put(CellStore(tmp_path / "scratch"), other_key, RECORD)
    scratch = next((tmp_path / "scratch").glob("cells-*.jsonl"))
    line = scratch.read_bytes()
    store = CellStore(tmp_path / "cells")
    put(store, key, RECORD)
    shard = tmp_path / "cells" / scratch.name
    with shard.open("ab") as fh:
        fh.write(line[:-10])  # another process, mid-append
    store.refresh()
    assert store.get(other_key) is None and decoded == []
    with shard.open("ab") as fh:
        fh.write(line[-10:])
    store.refresh()
    store.refresh()
    assert store.get(other_key) == RECORD
    assert decoded == [line[:-1]]  # consumed once terminated, exactly once
    # A *complete* line that does not parse is damage, not an append in
    # flight — on a live store as on a fresh one: skipped and counted
    # once, dropped by compact().
    with shard.open("ab") as fh:
        fh.write(b"garbage\n")
    for _ in range(2):
        store.refresh()
    assert store.corrupt_lines == 1 and decoded[-1] == b"garbage"
    assert store.compact()["corrupt"] == 1
    store.refresh()
    assert len(store) == 2


def test_compaction_by_another_store_reloads_everything(tmp_path, decoded):
    keys = keys_of(*range(8))
    store = CellStore(tmp_path)
    store.put_many((key, RECORD) for key in keys)
    newer = {**RECORD, "s": 2.0}
    other = CellStore(tmp_path)
    put(other, keys[0], newer)
    assert other.compact() == {"kept": 8, "superseded": 1, "corrupt": 0}
    del decoded[:]
    store.refresh()
    # Offsets into the replaced files mean nothing: every kept line again.
    assert len(decoded) == 8 and len(store) == 8
    assert store.get(keys[0]) == newer  # the last write, not the stale one
    put(store, keys[1], newer)
    assert CellStore(tmp_path).get(keys[1]) == newer


def test_four_threads_share_one_store(tmp_path, decoded):
    """``lookup_cells`` + ``put_many`` from four threads (twice the cores)
    lose no entry, no line and no hit/miss count, and read no line twice."""
    scenario = make_sort()
    shape = scenario.grid_shape
    cells = range(int(np.prod(shape)))
    keyer = SweepKeyer(scenario, None, None, None)
    before = keys_of(*range(200))
    CellStore(tmp_path).put_many((key, RECORD) for key in before)
    store = CellStore(tmp_path)  # not loaded yet: the threads race for that
    n_threads, rounds = 4, 20
    errors = []

    def work(thread):
        try:
            for round_ in range(rounds):
                plan = f"t{thread}.r{round_}"
                store.put_many(
                    (keyer.key(plan, np.unravel_index(flat, shape)), RECORD)
                    for flat in cells
                )
                hits = lookup_cells(store, keyer, [plan], cells, shape)
                assert sorted(hits) == list(cells)
                assert not lookup_cells(store, keyer, [plan, "absent"], cells, shape)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(thread,))
            for thread in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    expected = n_threads * rounds * len(cells)
    assert (store.cell_hits, store.cell_misses) == (expected, expected)
    assert store.writes == expected and len(store) == expected + len(before)
    # One load, and appends made under the lock land right behind the
    # offset, so nothing the threads wrote was read back.
    assert len(decoded) == len(before)
    assert CellStore(tmp_path).index == store.index  # every line landed whole


# ---------------------------------------------------------------------------
# the key discipline
# ---------------------------------------------------------------------------


def coarse_join():
    return JoinScenario(
        OperatorBench(), (64, 128, 256), (64, 128, 256),
        row_bytes=16, key_domain=256, seed=5,
    )


def fine_join():
    return JoinScenario(
        OperatorBench(), (64, 96, 128, 192, 256), (64, 96, 128, 192, 256),
        row_bytes=16, key_domain=256, seed=5,
    )


def test_keys_use_axis_values_not_grid_indices():
    kc = SweepKeyer(coarse_join(), None, None, None)
    kf = SweepKeyer(fine_join(), None, None, None)
    # rows=128 is index 1 on the coarse grid, index 2 on the fine one:
    # same coordinates, same key.
    assert kc.key("join.merge", (1, 1)) == kf.key("join.merge", (2, 2))
    # A different coordinate value is a different key.
    assert kc.key("join.merge", (1, 1)) != kf.key("join.merge", (1, 1))


def test_keys_track_every_result_shaping_knob(sort_budget):
    scenario = make_sort()
    base = SweepKeyer(scenario, sort_budget, 1 << 20, None, context="c")
    variants = [
        SweepKeyer(scenario, sort_budget * 2, 1 << 20, None, context="c"),
        SweepKeyer(scenario, sort_budget, 2 << 20, None, context="c"),
        SweepKeyer(scenario, sort_budget, 1 << 20, None, context="other"),
        SweepKeyer(scenario, sort_budget, 1 << 20, Jitter(seed=1), context="c"),
    ]
    keys = {k.key("sort.graceful", (0, 0)) for k in [base] + variants}
    assert len(keys) == len(variants) + 1
    # ...and the plan id partitions the space.
    assert base.key("sort.graceful", (0, 0)) != base.key(
        "sort.all-or-nothing", (0, 0)
    )


def test_jittered_keys_are_grid_position_bound():
    # Jitter seeds on the cell's grid indices, so the same coordinate on
    # a different grid must MISS (reuse would change the map).
    jitter = Jitter(rel=0.02, abs=0.0005, seed=7)
    kc = SweepKeyer(coarse_join(), None, None, jitter)
    kf = SweepKeyer(fine_join(), None, None, jitter)
    assert kc.key("join.merge", (1, 1)) != kf.key("join.merge", (2, 2))
    # Same grid, same position: still reusable.
    assert kc.key("join.merge", (1, 1)) == SweepKeyer(
        coarse_join(), None, None, jitter
    ).key("join.merge", (1, 1))


def test_non_json_spec_params_fail_loudly():
    scenario = make_sort()
    spec = scenario.spec()
    spec.params["poison"] = object()
    scenario.spec = lambda: spec  # shadow the method with the poisoned spec
    with pytest.raises(ExperimentError, match="content-addressable"):
        SweepKeyer(scenario, None, None, None)


# ---------------------------------------------------------------------------
# warm == cold, bit-identical (serial x parallel x dense x adaptive)
# ---------------------------------------------------------------------------


def serial_map(budget, store=None, policy=None, jitter=None):
    sweep = RobustnessSweep(
        [OperatorBench()],
        budget_seconds=budget,
        jitter=jitter,
        cell_store=store,
    )
    return sweep.sweep(make_sort(), policy=policy)


def parallel_map(budget, store=None, policy=None):
    engine = ParallelSweep(
        operator_bench_factory,
        budget_seconds=budget,
        n_workers=2,
        cell_store=store,
    )
    return engine.sweep(make_sort().spec(), policy=policy)


@pytest.mark.parametrize("adaptive", [False, True], ids=["dense", "adaptive"])
def test_serial_warm_is_bit_identical(tmp_path, sort_budget, adaptive):
    def policy():
        return AdaptiveRefinePolicy(initial_step=2) if adaptive else None

    cold = serial_map(sort_budget, policy=policy())
    assert cold.aborted.any()  # the budget censors: abort flags covered
    store = CellStore(tmp_path)
    first = serial_map(sort_budget, store=store, policy=policy())
    assert identical(cold, first)
    assert store.cell_hits == 0
    warm_store = CellStore(tmp_path)
    warm = serial_map(sort_budget, store=warm_store, policy=policy())
    assert identical(cold, warm)
    assert warm_store.cell_misses == 0
    assert warm_store.cell_hits == int(cold.measured_mask.sum())


@pytest.mark.parametrize("adaptive", [False, True], ids=["dense", "adaptive"])
def test_parallel_warm_is_bit_identical(tmp_path, sort_budget, adaptive):
    def policy():
        return AdaptiveRefinePolicy(initial_step=2) if adaptive else None

    cold = serial_map(sort_budget, policy=policy())
    store = CellStore(tmp_path)
    first = parallel_map(sort_budget, store=store, policy=policy())
    assert identical(cold, first)  # parent wrote the worker parts back
    warm_store = CellStore(tmp_path)
    warm = parallel_map(sort_budget, store=warm_store, policy=policy())
    assert identical(cold, warm)
    assert warm_store.cell_misses == 0


def test_all_hit_parallel_wave_skips_pool_dispatch(
    tmp_path, sort_budget, monkeypatch
):
    store = CellStore(tmp_path)
    cold = parallel_map(sort_budget, store=store)

    import repro.core.parallel as par

    def boom(*args, **kwargs):
        raise AssertionError("pool spawned for an all-hit sweep")

    monkeypatch.setattr(par, "ProcessPoolExecutor", boom)
    warm = parallel_map(sort_budget, store=CellStore(tmp_path))
    assert identical(cold, warm)


def test_jittered_warm_rerun_is_identical(tmp_path, sort_budget):
    jitter = Jitter(rel=0.02, abs=0.0005, seed=7)
    cold = serial_map(sort_budget, jitter=jitter)
    store = CellStore(tmp_path)
    serial_map(sort_budget, store=store, jitter=jitter)
    warm_store = CellStore(tmp_path)
    warm = serial_map(sort_budget, store=warm_store, jitter=jitter)
    assert identical(cold, warm)
    assert warm_store.cell_misses == 0
    # An unjittered sweep must not reuse jittered measurements.
    nojit_store = CellStore(tmp_path)
    nojit = serial_map(sort_budget, store=nojit_store)
    assert nojit_store.cell_hits == 0
    assert not np.array_equal(cold.times, nojit.times, equal_nan=True)


def test_overlap_grid_reuses_shared_cells(tmp_path):
    budget = None  # uncensored: every cell stores a finite time
    store = CellStore(tmp_path)
    coarse = RobustnessSweep([OperatorBench()], cell_store=store).sweep(
        coarse_join()
    )
    assert store.writes == 9 * 4  # 3x3 cells, four join plans
    fine_store = CellStore(tmp_path)
    fine = RobustnessSweep([OperatorBench()], cell_store=fine_store).sweep(
        fine_join()
    )
    # Exactly the 3x3 shared-coordinate cells hit on the 5x5 rerun.
    assert fine_store.cell_hits == 9
    assert fine_store.cell_misses == 25 - 9
    shared = [0, 2, 4]  # fine-grid indices of the coarse coordinates
    np.testing.assert_array_equal(
        coarse.times, fine.times[:, shared][:, :, shared]
    )
    assert budget is None


def test_corrupted_store_rejects_warm_sweep(tmp_path, sort_budget):
    """It was rejected until PR 23; now the damaged line is skipped and the
    sweep is answered from the rest."""
    store = CellStore(tmp_path)
    cold = serial_map(sort_budget, store=store)
    shard = next(tmp_path.glob("cells-*.jsonl"))
    with shard.open("a") as fh:
        fh.write("garbage\n")
    damaged = CellStore(tmp_path)
    assert identical(serial_map(sort_budget, store=damaged), cold)
    assert damaged.corrupt_lines == 1 and damaged.stats()["cell_misses"] == 0


def test_records_from_part_inverts_lookup(tmp_path, sort_budget):
    scenario = make_sort()
    sweep = RobustnessSweep([OperatorBench()], budget_seconds=sort_budget)
    part, _ = sweep.measure_part(scenario, sweep.plan_ids(scenario), [0, 5, 11])
    keyer = sweep.store_keyer(scenario)
    store = CellStore(tmp_path)
    store.put_many(records_from_part(keyer, part))
    plan_ids = part.plan_ids
    hits = lookup_cells(store, keyer, plan_ids, [0, 5, 11], (4, 3))
    assert sorted(hits) == [0, 5, 11]
    # Censored measurements round-trip as aborted/None records.
    flat_times = part.times.reshape(len(plan_ids), -1)
    flat_aborted = part.aborted.reshape(len(plan_ids), -1)
    for flat, records in hits.items():
        for p, plan_id in enumerate(plan_ids):
            if flat_aborted[p, flat]:
                assert records[plan_id]["a"] and records[plan_id]["s"] is None
            else:
                assert records[plan_id]["s"] == flat_times[p, flat]


# ---------------------------------------------------------------------------
# progress events
# ---------------------------------------------------------------------------


def test_progress_reports_cache_hits_serial(tmp_path, sort_budget):
    store = CellStore(tmp_path)
    serial_map(sort_budget, store=store)
    events = []
    sweep = RobustnessSweep(
        [OperatorBench()],
        budget_seconds=sort_budget,
        cell_store=CellStore(tmp_path),
        progress=events.append,
    )
    sweep.sweep(make_sort())
    assert len(events) == 1  # one event: everything loaded, nothing measured
    assert events[0].cache_hits == 12 and events[0].done == 12
    assert "12 cached" in events[0].render()


def test_progress_cache_hits_none_without_store(sort_budget):
    events = []
    RobustnessSweep(
        [OperatorBench()], budget_seconds=sort_budget, progress=events.append
    ).sweep(make_sort())
    assert events and all(e.cache_hits is None for e in events)
    assert "cached" not in events[0].render()


def test_round_events_carry_running_hit_totals(tmp_path, sort_budget):
    store = CellStore(tmp_path)
    policy = AdaptiveRefinePolicy(initial_step=2)
    serial_map(sort_budget, store=store, policy=policy)
    events = []
    sweep = RobustnessSweep(
        [OperatorBench()],
        budget_seconds=sort_budget,
        cell_store=CellStore(tmp_path),
        progress=events.append,
    )
    sweep.sweep(make_sort(), policy=AdaptiveRefinePolicy(initial_step=2))
    rounds = [e for e in events if e.kind == "round"]
    assert rounds
    hits = 0
    for event in rounds:  # fully warm: each wave adds its cells to the total
        hits += event.wave_cells
        assert event.cache_hits == event.done == hits


# ---------------------------------------------------------------------------
# bench config + harness integration
# ---------------------------------------------------------------------------


def tiny_config(**overrides) -> BenchConfig:
    defaults = dict(
        n_rows=512, min_exp_1d=-3, min_exp_2d=-2, pool_pages=32,
        memory_axis=(16 << 10, 64 << 10),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


def test_fingerprint_ignores_cell_cache_dir(tmp_path):
    base = tiny_config()
    assert (
        tiny_config(cell_cache_dir=str(tmp_path)).fingerprint()
        == base.fingerprint()
    )


def test_cell_store_context_drops_grid_and_policy_knobs(tmp_path):
    base = tiny_config().cell_store_context()
    for change in (
        {"min_exp_1d": -5},
        {"min_exp_2d": -4},
        {"memory_axis": (16 << 10,)},
        {"sort_rows": (2048,)},
        {"join_rows": (512, 1024)},
        {"error_magnitudes": (0.0,)},
        {"refine": True},
        {"refine_max_cells": 9},
        {"n_workers": 4},
        {"cache_dir": str(tmp_path)},
        {"cell_cache_dir": str(tmp_path)},
    ):
        assert tiny_config(**change).cell_store_context() == base, change
    for change in ({"n_rows": 1024}, {"seed": 7}, {"pool_pages": 64}):
        assert tiny_config(**change).cell_store_context() != base, change


def test_session_without_cell_cache_has_no_store():
    assert BenchSession(tiny_config()).cell_store() is None


def test_cell_cache_warms_across_sessions(tmp_path):
    config = tiny_config(cell_cache_dir=str(tmp_path))
    cold_session = BenchSession(config)
    cold = cold_session.request_map(MapRequest("memory_sweep"))
    n_cells = int(np.prod(cold.grid_shape))
    assert cold_session.cell_store().cell_misses == n_cells
    warm_session = BenchSession(dataclasses.replace(config))
    warm = warm_session.request_map(MapRequest("memory_sweep"))
    store = warm_session.cell_store()
    assert store.cell_hits == n_cells and store.cell_misses == 0
    assert identical(cold, warm)


def test_cell_cache_survives_grid_extension(tmp_path):
    config = tiny_config(cell_cache_dir=str(tmp_path))
    coarse = BenchSession(config)
    coarse_map = coarse.request_map(MapRequest("memory_sweep"))
    # min_exp_2d -2 -> -4: the log2 selectivity targets are a superset,
    # so every coarse cell hits on the finer session.
    fine = BenchSession(dataclasses.replace(config, min_exp_2d=-4))
    fine_map = fine.request_map(MapRequest("memory_sweep"))
    n_coarse = int(np.prod(coarse_map.grid_shape))
    assert fine.cell_store().cell_hits == n_coarse
    shared = [
        int(np.where(np.isclose(fine_map.axes[0].targets, t))[0][0])
        for t in coarse_map.axes[0].targets
    ]
    np.testing.assert_array_equal(
        coarse_map.times, fine_map.times[:, shared, :]
    )


def test_cli_cell_cache_smoke(tmp_path, monkeypatch, capsys):
    from repro.bench.cli import main

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-2")
    cache = tmp_path / "cells"
    out = tmp_path / "out"
    argv = [
        str(out), "--scenario", "memory_sweep", "--cell-cache", str(cache),
    ]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert "cell store" in first and "(0% hit rate)" in first
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert "100% hit rate" in second
