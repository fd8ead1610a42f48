"""Scope of the payload a runner's plans share (``PayloadMemo``).

The memo holds one provider's payload at one cell: it dies with the
runner a sweep makes for that cell, and no two runners — on two
threads, say, as ``serve`` runs jobs — ever share one.
"""

import threading
import weakref

import numpy as np
import pytest

from repro.core.parameter_space import Space1D, Space2D
from repro.core.runner import RobustnessSweep
from repro.core.scenario import TwoPredicateScenario
from repro.executor.context import PayloadMemo
from repro.executor.mdam import DecodedSpan
from repro.executor.results import Result
from repro.systems import SystemConfig, build_three_systems
from repro.workloads import LineitemConfig
from repro.workloads.queries import TwoPredicateQuery
from repro.workloads.selectivity import PredicateBuilder

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=4096), pool_pages=64)


@pytest.fixture(scope="module")
def systems():
    return build_three_systems(CONFIG)


def _arrays(value) -> list[np.ndarray]:
    """The arrays a memo entry holds."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, Result):
        return [value.rids, *value.columns.values()]
    if isinstance(value, DecodedSpan):
        return [value.leading, value.trailing, value.rids]
    return [array for item in value for array in _arrays(item)]


@pytest.fixture
def memoized(monkeypatch) -> list[tuple[int, int, list]]:
    """``(thread id, memo id, weakrefs to the arrays)`` of every memo
    lookup made while the test runs."""
    seen: list[tuple[int, int, list]] = []
    real_get, real_derived = PayloadMemo.get, PayloadMemo.derived

    def record(memo, value):
        refs = [weakref.ref(array) for array in _arrays(value)]
        seen.append((threading.get_ident(), id(memo), refs))
        return value

    monkeypatch.setattr(
        PayloadMemo, "get", lambda memo, *a: record(memo, real_get(memo, *a))
    )
    monkeypatch.setattr(
        PayloadMemo,
        "derived",
        lambda memo, *a: record(memo, real_derived(memo, *a)),
    )
    return seen


def test_memoized_payload_dies_when_its_cell_is_measured(
    systems, memoized, monkeypatch
):
    """Every array a cell's runners memoized is freed by the time the
    sweep's ``_measure_cell`` returns: nothing outlives the cell."""
    real = RobustnessSweep._measure_cell
    cells = []

    def checked(sweep, providers, cell):
        del memoized[:]
        outcomes = real(sweep, providers, cell)
        assert memoized, "the cell's plans memoized nothing"
        assert all(ref() is None for *_ids, refs in memoized for ref in refs)
        cells.append(cell.describe)
        return outcomes

    monkeypatch.setattr(RobustnessSweep, "_measure_cell", checked)
    space = Space2D(Space1D("a", [1e-3, 0.1, 1.0]), Space1D("b", [0.01, 0.5]))
    TwoPredicateScenario(list(systems.values()), space).run()
    assert len(cells) == 6


def test_runners_on_two_threads_never_share_a_memo(systems, memoized):
    """Two runners measuring the same plans on two threads each fill a
    memo of their own, and every array either hands out is its own."""
    a_pred, _ = PredicateBuilder(
        systems["A"].table, CONFIG.a_column
    ).range_for_selectivity(0.2)
    b_pred, _ = PredicateBuilder(
        systems["A"].table, CONFIG.b_column
    ).range_for_selectivity(0.3)
    query = TwoPredicateQuery(a_pred, b_pred)
    runners: dict[int, list] = {0: [], 1: []}
    seconds: dict[int, dict[str, float]] = {}
    lookups: dict[int, list] = {}

    def measure(slot: int) -> None:
        measured = {}
        for system in systems.values():
            runner = system.runner()
            runners[slot].append(runner)  # keeps every memo alive
            for plan_id, plan in system.plans_for(query).items():
                measured[plan_id] = runner.measure(plan).seconds
        seconds[slot] = measured

    for slot in (0, 1):
        # One at a time: the runners share the systems' storage
        # environments, and only the memo is under test.
        thread = threading.Thread(target=measure, args=(slot,))
        thread.start()
        thread.join()
        lookups[slot] = list(memoized)
        del memoized[:]
    assert seconds[0] == seconds[1]
    for slot in (0, 1):
        threads = {thread for thread, _memo, _refs in lookups[slot]}
        memos = {memo for _thread, memo, _refs in lookups[slot]}
        assert len(threads) == 1
        assert memos == {id(runner.memo) for runner in runners[slot]}
    assert len({id(runner.memo) for s in (0, 1) for runner in runners[s]}) == 6
    arrays = [
        {id(ref()) for _thread, _memo, refs in lookups[s] for ref in refs}
        for s in (0, 1)
    ]
    assert arrays[0] and arrays[1] and not arrays[0] & arrays[1]
