"""Join operators: correctness, memory behavior, and cost asymmetries."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.executor.context import ExecContext
from repro.executor.joins import (
    JOIN_PLAN_IDS,
    HashJoinNode,
    IndexNestedLoopJoinNode,
    JoinInputs,
    MergeJoinNode,
    join_matches,
    join_plan_inventory,
)
from repro.executor.plans import PlanRunner
from repro.executor.sort import SpillPolicy
from repro.storage.btree import DENSE_SPAN_PER_ROW


def brute_force_matches(left, right) -> int:
    left = np.asarray(left)
    right = np.asarray(right)
    return int(sum(int(np.count_nonzero(right == key)) for key in left))


ALL_NODE_BUILDERS = [
    lambda b, p: MergeJoinNode(b, p),
    lambda b, p: HashJoinNode(b, p, policy=SpillPolicy.GRACEFUL),
    lambda b, p: HashJoinNode(b, p, policy=SpillPolicy.ALL_OR_NOTHING),
    lambda b, p: IndexNestedLoopJoinNode(b, p),
]


# ---------------------------------------------------------------------------
# correctness: every operator produces the inner-join multiset
# ---------------------------------------------------------------------------


def test_join_matches_counts_duplicates():
    left = np.array([1, 1, 2, 3])
    right = np.array([1, 2, 2, 5])
    matched = join_matches(left, right)
    # key 1: 2x1 rows, key 2: 1x2 rows -> 4 output rows.
    assert matched.tolist() == [1, 1, 2, 2]
    assert matched.size == brute_force_matches(left, right)


def counter_matches(left, right) -> list[int]:
    """The inner join's sorted keys, by counting each side in a Counter."""
    left_counts, right_counts = Counter(left), Counter(right)
    return [
        key
        for key in sorted(left_counts.keys() & right_counts.keys())
        for _ in range(left_counts[key] * right_counts[key])
    ]


@st.composite
def join_inputs(draw):
    """Key lists around the dense/sparse switch: the span per input row
    is drawn on both sides of ``DENSE_SPAN_PER_ROW``, keys may be
    negative, a side may be empty or hold one distinct key."""
    n_left = draw(st.integers(0, 60))
    n_right = draw(st.integers(0, 60))
    rows = max(1, n_left + n_right)
    span_per_row = draw(
        st.sampled_from([0.25, 1.0, DENSE_SPAN_PER_ROW, DENSE_SPAN_PER_ROW + 1, 20])
    )
    low = draw(st.integers(-1000, 1000))
    high = low + max(0, int(span_per_row * rows) - 1)
    keys = st.integers(low, high)
    if draw(st.booleans()):  # one distinct key on the left
        left = [draw(keys)] * n_left
    else:
        left = draw(st.lists(keys, min_size=n_left, max_size=n_left))
    right = draw(st.lists(keys, min_size=n_right, max_size=n_right))
    return left, right


@given(join_inputs())
@settings(max_examples=300, deadline=None)
def test_join_matches_equals_counter_reference(inputs):
    left, right = inputs
    matched = join_matches(
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
    )
    assert matched.dtype == np.int64
    assert matched.tolist() == counter_matches(left, right)


def test_join_matches_takes_both_paths(monkeypatch):
    """The switch sits where the constant says: a span of exactly
    ``DENSE_SPAN_PER_ROW`` per row counts, one key more sorts."""
    import repro.executor.joins as joins

    sorted_calls = []
    real_intersect = joins.intersect_rids

    def intersect_rids(*args):
        sorted_calls.append(args)
        return real_intersect(*args)

    monkeypatch.setattr(joins, "intersect_rids", intersect_rids)
    rows = 8
    edge = rows * DENSE_SPAN_PER_ROW - 1  # span = edge + 1
    left = np.array([0, 3, 3, edge], dtype=np.int64)
    right = np.array([3, 5, edge, edge], dtype=np.int64)
    assert join_matches(left, right).tolist() == [3, 3, edge, edge]
    assert not sorted_calls
    assert join_matches(left, right + np.array([0, 0, 0, 1])).tolist() == [
        3,
        3,
        edge,
    ]
    assert sorted_calls


@pytest.mark.parametrize("make_node", ALL_NODE_BUILDERS)
def test_join_nodes_agree_with_oracle(env, rng, make_node):
    build = rng.integers(0, 64, 500)
    probe = rng.integers(0, 64, 300)
    run = PlanRunner(env, memory_bytes=1 << 20).measure(make_node(build, probe))
    assert not run.aborted
    assert run.n_rows == brute_force_matches(build, probe)


@pytest.mark.parametrize("make_node", ALL_NODE_BUILDERS)
@pytest.mark.parametrize(
    "n_build,n_probe", [(0, 0), (0, 100), (100, 0)]
)
def test_join_nodes_handle_empty_inputs(env, rng, make_node, n_build, n_probe):
    build = rng.integers(0, 32, n_build)
    probe = rng.integers(0, 32, n_probe)
    run = PlanRunner(env, memory_bytes=4096).measure(make_node(build, probe))
    assert not run.aborted
    assert run.n_rows == 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 20), max_size=200),
    st.lists(st.integers(0, 20), max_size=200),
    st.integers(1024, 1 << 16),
)
def test_all_join_nodes_agree_property(build, probe, memory_bytes):
    from repro.sim.profile import DeviceProfile
    from repro.storage import StorageEnv

    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=16)
    build = np.asarray(build, dtype=np.int64)
    probe = np.asarray(probe, dtype=np.int64)
    expected = brute_force_matches(build, probe)
    for make_node in ALL_NODE_BUILDERS:
        run = PlanRunner(env, memory_bytes=memory_bytes).measure(
            make_node(build, probe)
        )
        assert run.n_rows == expected


# ---------------------------------------------------------------------------
# the symmetry landmark at operator level (Fig 5)
# ---------------------------------------------------------------------------


def test_merge_join_cost_symmetric_even_when_spilling(env, rng):
    small = rng.integers(0, 1 << 10, 300)
    large = rng.integers(0, 1 << 10, 3000)
    runner = PlanRunner(env, memory_bytes=8 * 1024)  # large side spills
    forward = runner.measure(MergeJoinNode(small, large, row_bytes=16))
    backward = runner.measure(MergeJoinNode(large, small, row_bytes=16))
    assert forward.io.pages_written > 0  # the spill actually happened
    assert forward.seconds == pytest.approx(backward.seconds, rel=1e-9)


def test_hash_join_asymmetric_when_build_spills(env, rng):
    small = rng.integers(0, 1 << 10, 100)
    large = rng.integers(0, 1 << 10, 2000)
    runner = PlanRunner(env, memory_bytes=4096)  # 128 build rows fit
    big_build = runner.measure(HashJoinNode(large, small, row_bytes=16))
    small_build = runner.measure(HashJoinNode(small, large, row_bytes=16))
    assert big_build.io.pages_written > 0
    assert small_build.io.pages_written == 0  # probe size never spills
    assert big_build.seconds > 1.5 * small_build.seconds


def test_hash_join_in_memory_when_build_fits(env, rng):
    build = rng.integers(0, 1 << 10, 100)
    probe = rng.integers(0, 1 << 10, 5000)
    run = PlanRunner(env, memory_bytes=1 << 20).measure(
        HashJoinNode(build, probe)
    )
    assert run.io.pages_written == 0


def test_all_or_nothing_hash_spills_more_than_graceful(env, rng):
    memory_bytes = 4096  # 128 resident build rows at 32 B/entry
    build = rng.integers(0, 1 << 10, 140)  # just over the boundary
    probe = rng.integers(0, 1 << 10, 1000)
    runner = PlanRunner(env, memory_bytes=memory_bytes)
    graceful = runner.measure(
        HashJoinNode(build, probe, policy=SpillPolicy.GRACEFUL)
    )
    all_or_nothing = runner.measure(
        HashJoinNode(build, probe, policy=SpillPolicy.ALL_OR_NOTHING)
    )
    assert graceful.io.pages_written > 0
    assert all_or_nothing.io.pages_written > graceful.io.pages_written
    assert all_or_nothing.seconds > graceful.seconds


def test_hash_join_recursive_partitioning(env, rng):
    """A build side far beyond memory repartitions over several passes."""
    memory_bytes = 2048
    probe = rng.integers(0, 1 << 10, 64)
    runner = PlanRunner(env, memory_bytes=memory_bytes)
    shallow = runner.measure(
        HashJoinNode(
            rng.integers(0, 1 << 10, 80),
            probe,
            policy=SpillPolicy.ALL_OR_NOTHING,
        )
    )
    deep = runner.measure(
        HashJoinNode(
            rng.integers(0, 1 << 10, 2048),
            probe,
            policy=SpillPolicy.ALL_OR_NOTHING,
        )
    )
    # One pass writes each spilled input once; the deep build must spill
    # its own pages several times over (2048 rows x 16 B = 32 pages of
    # 1 KiB, while > 64 written pages proves at least two passes).
    build_pages = 2048 * 16 // 1024
    assert shallow.io.pages_written < 2 * build_pages
    assert deep.io.pages_written > 2 * build_pages


def test_index_nested_loop_probes_through_buffer_pool(env, rng):
    build = rng.integers(0, 1 << 10, 2000)
    probe = rng.integers(0, 1 << 10, 1500)
    runner = PlanRunner(env, memory_bytes=1 << 20)
    before_hits = env.pool.stats.hits
    few = runner.measure(IndexNestedLoopJoinNode(build, rng.integers(0, 1 << 10, 50)))
    many = runner.measure(IndexNestedLoopJoinNode(build, probe))
    assert env.pool.stats.hits > before_hits  # descents hit cached nodes
    assert many.seconds > few.seconds  # probe count drives the cost


def test_index_nested_loop_respects_budget(env, rng):
    build = rng.integers(0, 1 << 10, 2000)
    probe = rng.integers(0, 1 << 10, 4000)
    run = PlanRunner(env, memory_bytes=1 << 20, budget_seconds=1e-4).measure(
        IndexNestedLoopJoinNode(build, probe)
    )
    assert run.aborted


# ---------------------------------------------------------------------------
# the inventory
# ---------------------------------------------------------------------------


def test_join_plan_inventory_ids(rng):
    plans = join_plan_inventory(
        JoinInputs(rng.integers(0, 8, 16), rng.integers(0, 8, 16))
    )
    assert tuple(plans) == JOIN_PLAN_IDS
