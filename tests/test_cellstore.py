"""Content-addressed cell store: warm == cold, key discipline, storage."""

import dataclasses
import hashlib
import itertools
import json
import shutil
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchConfig, BenchSession, MapRequest
from repro.core.cellstore import (
    CellStore,
    SweepKeyer,
    _canonical,
    _encode_line,
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


def entries_of(store) -> dict:
    """The store's index read back as hex key -> parsed record."""
    return {digest.hex(): json.loads(body) for digest, body in store.index.items()}


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


def test_a_record_equal_in_python_but_not_in_bytes_supersedes(tmp_path):
    """Duplicates are judged by canonical bytes: ``1`` is not ``1.0``."""
    store = CellStore(tmp_path)
    key = measurement_key({"k": 1})
    old, new = {"s": 1.0, "a": False, "r": 3}, {"s": 1, "a": 0, "r": 3.0}
    assert old == new and _canonical(old) != _canonical(new)
    assert put(store, key, old) == 1
    assert put(store, key, new) == 1  # supersedes
    assert put(store, key, new) == 0  # the same bytes again: a no-op
    for reader in (store, CellStore(tmp_path)):
        assert _canonical(reader.get(key)) == _canonical(new)


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


def test_the_index_holds_record_bytes_under_key_digests(tmp_path):
    """An entry costs its digest, its record's canonical bytes and a dict
    slot (about 165 B; a parsed record under a hex key held ~333 B)."""
    n = 5000
    rng = np.random.default_rng(7)
    seconds = [s if s > 0.05 else None for s in rng.uniform(0, 2.0, n).tolist()]
    rows = rng.integers(0, 1 << 17, n).tolist()
    CellStore(tmp_path).put_many(
        (measurement_key({"n": i}), {"s": s, "a": s is None, "r": r})
        for i, (s, r) in enumerate(zip(seconds, rows))
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = CellStore(tmp_path)
        assert len(store) == n
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n <= 200
    digest, body = next(iter(store.index.items()))
    assert type(digest) is type(body) is bytes and len(digest) == 16


def test_a_warm_wave_parses_its_hits_in_one_loads(tmp_path, monkeypatch):
    import repro.core.cellstore as module

    scenario = make_sort()
    shape = scenario.grid_shape
    cells = list(range(int(np.prod(shape))))
    keyer = SweepKeyer(scenario, None, None, None)
    plans = ["p", "q"]
    part = {
        flat: {plan: {"s": flat / 8, "a": False, "r": 3} for plan in plans}
        for flat in cells
    }
    store = CellStore(tmp_path)
    store.put_many(records_from_part(keyer, part))
    calls = []
    monkeypatch.setattr(
        module,
        "json",
        SimpleNamespace(loads=lambda data: calls.append(data) or json.loads(data)),
    )
    assert lookup_cells(store, keyer, plans, cells, shape) == part
    assert len(calls) == 1
    # A partly known cell is a miss, and its records are not parsed.
    assert lookup_cells(store, keyer, plans + ["absent"], cells, shape) == {}
    assert calls[-1] == b"[]"


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
    plan_ids = sweep.plan_ids(scenario)
    part, _ = sweep.measure_part(scenario, plan_ids, [0, 5, 11])
    keyer = sweep.store_keyer(scenario)
    store = CellStore(tmp_path)
    store.put_many(records_from_part(keyer, part))
    hits = lookup_cells(store, keyer, plan_ids, [0, 5, 11], (4, 3))
    # A part is the store's own records: the lookup gives it back as is.
    assert hits == part
    # Censored measurements round-trip as aborted/None records.
    assert any(
        record["a"] and record["s"] is None
        for records in hits.values()
        for record in records.values()
    )


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


# ---------------------------------------------------------------------------
# the line and key formats: byte-identical to their definitions
# ---------------------------------------------------------------------------


def canonical(payload) -> bytes:
    """Canonical JSON as the store has always defined it."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _record_digest(record) -> str:
    """The line digest as the store has always defined it: blake2s-64 of
    the record's canonical JSON."""
    return hashlib.blake2s(canonical(record), digest_size=8).hexdigest()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
records = st.dictionaries(st.text(max_size=8), json_values, max_size=5)
store_keys = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)


@settings(max_examples=200, deadline=None)
@given(key=store_keys, record=records)
def test_encode_line_is_the_canonical_line(tmp_path_factory, key, record):
    line = _encode_line(key, record)
    assert line == _canonical(
        {"k": key, "d": _record_digest(record), "r": record}
    ) + b"\n"
    assert _canonical(record) == canonical(record)
    directory = tmp_path_factory.mktemp("cells")
    (directory / f"cells-{key[0]}.jsonl").write_bytes(line)
    store = CellStore(directory)
    assert entries_of(store) == {key: record} and store.corrupt_lines == 0


def old_style_payload(spec, axes, budget, memory, jitter, context, plan_id, idx):
    """The payload a key hashes, built the way keys were always built: the
    oracle :class:`SweepKeyer` must agree with byte for byte."""
    payload = {
        "scenario": spec.name,
        "params": spec.settings,
        "budget_seconds": None if budget is None else float(budget),
        "memory_bytes": None if memory is None else int(memory),
        "context": str(context),
    }
    if jitter is not None:
        payload["jitter"] = [float(jitter.rel), float(jitter.abs), int(jitter.seed)]
    payload["plan"] = str(plan_id)
    payload["coords"] = [
        [axis.name, float(axis.targets[i])] for axis, i in zip(axes, idx)
    ]
    if jitter is not None:
        payload["jitter_cell"] = [int(i) for i in idx]
    return payload


awkward_text = st.text(max_size=6) | st.sampled_from(
    ['a"b', "back\\slash", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", ""]
)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    name=awkward_text,
    settings_=st.dictionaries(awkward_text, json_values, max_size=4),
    axes=st.lists(
        st.tuples(awkward_text, st.lists(finite, min_size=1, max_size=3)),
        min_size=1,
        max_size=3,
    ),
    budget=st.none() | st.floats(min_value=1e-300, max_value=1e300),
    memory=st.none() | st.integers(),
    jitter=st.none()
    | st.builds(Jitter, rel=finite, abs=finite, seed=st.integers(0, 1 << 40)),
    context=awkward_text,
    plan_ids=st.lists(
        st.tuples(awkward_text, st.booleans()).map(
            lambda p: p[0] + "#profile" if p[1] else p[0]
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_keyer_matches_measurement_key(
    name, settings_, axes, budget, memory, jitter, context, plan_ids
):
    spec = SimpleNamespace(name=name, settings=settings_)
    axes = [SimpleNamespace(name=n, targets=t) for n, t in axes]
    scenario = SimpleNamespace(spec=lambda: spec, axes=axes)
    keyer = SweepKeyer(scenario, budget, memory, jitter, context)
    for idx in itertools.product(*(range(len(a.targets)) for a in axes)):
        payloads = [
            old_style_payload(
                spec, axes, budget, memory, jitter, context, plan_id, idx
            )
            for plan_id in plan_ids
        ]
        expected = [measurement_key(payload) for payload in payloads]
        assert expected == [
            hashlib.blake2s(canonical(payload), digest_size=16).hexdigest()
            for payload in payloads
        ]
        assert list(keyer.keys(plan_ids, idx)) == expected
        assert [keyer.key(plan_id, idx) for plan_id in plan_ids] == expected


# ---------------------------------------------------------------------------
# reading: one layout, verified from the line's own bytes
# ---------------------------------------------------------------------------


def test_failed_put_many_leaves_no_trace(tmp_path):
    a, b = keys_of(1, 2)
    store = CellStore(tmp_path)
    with pytest.raises(ValueError):
        store.put_many([(a, {"s": 1.0}), (b, {"s": float("inf")})])
    assert store.get(a) is None and len(store) == 0 and store.writes == 0
    assert not any(path.read_bytes() for path in tmp_path.glob("cells-*.jsonl"))
    assert store.put_many([(a, {"s": 1.0})]) == 1  # not taken for a duplicate
    assert entries_of(CellStore(tmp_path)) == {a: {"s": 1.0}}
    # A key the reader would not take back is refused the same way.
    with pytest.raises(ValueError):
        store.put_many([(b, {"s": 1.0}), ("not a key", {"s": 1.0})])
    assert store.get(b) is None
    assert entries_of(CellStore(tmp_path)) == {a: {"s": 1.0}}


def test_non_canonical_layouts_are_corrupt(tmp_path, caplog):
    """Valid JSON in any layout but the written one is a corrupt line (the
    store never wrote one): skipped, counted, warned about once, and
    dropped by compact()."""
    kept, spaced, reordered = keys_of(1, 2, 3)
    store = CellStore(tmp_path)
    put(store, kept, RECORD)
    shard = next(tmp_path.glob("cells-*.jsonl"))
    digest = _record_digest(RECORD)
    with shard.open("a") as fh:
        fh.write(json.dumps({"d": digest, "k": spaced, "r": RECORD}) + "\n")
        reordered_line = {"k": reordered, "d": digest, "r": RECORD}
        fh.write(json.dumps(reordered_line, separators=(",", ":")) + "\n")
    reopened = CellStore(tmp_path)
    assert entries_of(reopened) == {kept: RECORD}
    reopened.refresh()
    assert reopened.corrupt_lines == 2
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
        f"corrupt cell-store shard {shard} (line {n})" for n in (2, 3)
    ]
    assert reopened.compact() == {"kept": 1, "superseded": 0, "corrupt": 2}
    assert shard.read_bytes() == _encode_line(kept, RECORD)


def test_lines_that_pass_their_digest_but_not_the_parse(tmp_path, caplog):
    """Only a forged line gets here: its digest matches bytes that are not
    one JSON object, or its key is not hex.  It alone is corrupt; the
    batch around it loads."""
    keys = keys_of(*range(6))
    store = CellStore(tmp_path)
    store.put_many((key, RECORD) for key in keys[:3])
    shard = store._shard_path(keys[0])
    forged = [
        (keys[3], b'{"s":1.0},{"s":2.0}'),
        (keys[4], b"7"),
        (keys[5], b'{"s":'),
        ("G" * 32, b'{"s":1.0}'),
    ]
    with shard.open("ab") as fh:
        for key, body in forged:
            digest = hashlib.blake2s(body, digest_size=8).hexdigest()
            fh.write(b'{"d":"%s","k":"%s","r":%s}\n' % (
                digest.encode(), key.encode(), body
            ))
        fh.write(_encode_line(keys[0], {**RECORD, "s": 2.0}))
    n_lines = len(shard.read_bytes().splitlines())
    reopened = CellStore(tmp_path)
    assert entries_of(reopened) == {
        keys[0]: {**RECORD, "s": 2.0}, keys[1]: RECORD, keys[2]: RECORD
    }
    assert reopened.corrupt_lines == 4
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
        f"corrupt cell-store shard {shard} (line {n})"
        for n in range(n_lines - 4, n_lines)
    ]
    assert reopened.compact() == {"kept": 3, "superseded": 1, "corrupt": 4}


# A store written by the code before the fragment keyer and the one-dump
# writer: ``legacy_store/store`` holds the cell store of a serial, traced
# join sweep (n_rows 4096, join_rows 512/1024/2048: 36 measurements and
# their 36 profiles), then one tampered copy of line 3 of cells-5.jsonl
# inserted as line 4, and the first 40 bytes of a line appended to
# cells-a.jsonl with no newline (a torn tail).  ``summary.json`` is what
# that code made of it (entries, corrupt lines, warnings, compact stats);
# ``compacted`` is the output of its compact().
LEGACY = Path(__file__).parent / "data" / "legacy_store"


def legacy_config(directory) -> BenchConfig:
    return BenchConfig(
        n_rows=4096, min_exp_1d=-6, min_exp_2d=-6, join_rows=(512, 1024, 2048),
        trace=True, n_workers=0, cache_dir=None, cell_cache_dir=directory,
    )


def old_format_entries(directory) -> dict:
    """Every entry of a store, read the way stores were always read: one
    ``json.loads`` per line, later lines superseding."""
    entries = {}
    for path in sorted(directory.glob("cells-?.jsonl")):
        for line in path.read_bytes().splitlines():
            obj = json.loads(line)
            entries[obj["k"]] = obj["r"]
    return entries


@pytest.fixture
def legacy_store(tmp_path):
    shutil.copytree(LEGACY / "store", tmp_path / "store")
    return tmp_path / "store"


def test_legacy_store_loads_to_the_same_entries(legacy_store, caplog):
    summary = json.loads((LEGACY / "summary.json").read_text())
    store = CellStore(legacy_store)
    assert entries_of(store) == old_format_entries(LEGACY / "compacted")
    assert len(store) == summary["entries"]
    assert store.corrupt_lines == summary["corrupt_lines"]
    assert [r.getMessage() for r in caplog.records] == [
        f"corrupt cell-store shard {legacy_store / name} (line {line}): "
        "skipped; compact() drops damaged entries"
        for name, line in summary["warnings"]
    ]


def test_legacy_store_compacts_to_the_recorded_bytes(legacy_store):
    summary = json.loads((LEGACY / "summary.json").read_text())
    assert CellStore(legacy_store).compact() == summary["compact"]
    recorded = sorted(p.name for p in (LEGACY / "compacted").iterdir())
    assert sorted(p.name for p in legacy_store.iterdir()) == recorded
    for name in recorded:
        assert (legacy_store / name).read_bytes() == (
            LEGACY / "compacted" / name
        ).read_bytes(), name


def test_warm_sweep_over_legacy_store_measures_nothing(legacy_store):
    from repro.obs.profile import profiles_from_meta

    session = BenchSession(legacy_config(str(legacy_store)))
    warm = session.request_map(MapRequest("join"))
    store = session.cell_store()
    assert (store.cell_hits, store.cell_misses, store.writes) == (9, 0, 0)
    assert len(profiles_from_meta(warm.meta)) == 36
    cold = BenchSession(legacy_config(None)).request_map(MapRequest("join"))
    assert identical(warm, cold)
