"""Unit and property tests for external sort."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.executor.context import ExecContext
from repro.executor.sort import ExternalSort, SpillPolicy


def ctx_with_memory(env, memory_bytes):
    return ExecContext(env, memory_bytes=memory_bytes)


def test_in_memory_sort_correct(env, rng):
    ctx = ctx_with_memory(env, 1 << 20)
    values = rng.integers(0, 1 << 30, 1000)
    result = ExternalSort(ctx).sort(values)
    assert np.array_equal(result.values, np.sort(values))
    assert result.spilled_rows == 0
    assert result.n_runs == 1


def test_spilled_sort_correct(env, rng):
    ctx = ctx_with_memory(env, 8 * 100)  # room for 100 rows
    values = rng.integers(0, 1 << 30, 1000)
    result = ExternalSort(ctx, policy=SpillPolicy.GRACEFUL).sort(values)
    assert np.array_equal(result.values, np.sort(values))
    assert result.spilled_rows > 0


def test_graceful_spills_only_overflow(env, rng):
    memory_rows = 100
    ctx = ctx_with_memory(env, 8 * memory_rows)
    values = rng.integers(0, 100, memory_rows + 7)
    result = ExternalSort(ctx, policy=SpillPolicy.GRACEFUL).sort(values)
    assert result.spilled_rows == 7


def test_all_or_nothing_spills_everything(env, rng):
    memory_rows = 100
    ctx = ctx_with_memory(env, 8 * memory_rows)
    values = rng.integers(0, 100, memory_rows + 1)
    result = ExternalSort(ctx, policy=SpillPolicy.ALL_OR_NOTHING).sort(values)
    assert result.spilled_rows == memory_rows + 1


def test_cliff_at_memory_boundary(env, rng):
    """One extra record: all-or-nothing jumps, graceful barely moves (§4)."""
    row_bytes = 128
    memory_bytes = 64 * 1024
    memory_rows = memory_bytes // row_bytes

    def cost(n, policy):
        env.cold_reset()
        ctx = ctx_with_memory(env, memory_bytes)
        values = rng.integers(0, 1 << 30, n)
        start = env.clock.now
        ExternalSort(ctx, row_bytes=row_bytes, policy=policy).sort(values)
        return env.clock.now - start

    at_limit_naive = cost(memory_rows, SpillPolicy.ALL_OR_NOTHING)
    over_naive = cost(memory_rows + 1, SpillPolicy.ALL_OR_NOTHING)
    at_limit_graceful = cost(memory_rows, SpillPolicy.GRACEFUL)
    over_graceful = cost(memory_rows + 1, SpillPolicy.GRACEFUL)
    naive_jump = over_naive / at_limit_naive
    graceful_jump = over_graceful / at_limit_graceful
    assert naive_jump > 1.5
    assert graceful_jump < naive_jump


def test_sort_rejects_bad_row_bytes(env):
    with pytest.raises(ExecutionError):
        ExternalSort(ExecContext(env), row_bytes=0)


def test_spill_path_holds_a_memory_grant(env, rng):
    """Spilling sorts must account for their workspace like in-memory ones.

    The old spill path never took a broker grant for its ``memory_rows``
    workspace, so a spilling sort looked memory-free to any concurrent
    accounting.  Observe the broker at the moment runs are written.
    """
    memory_bytes = 8 * 100
    ctx = ctx_with_memory(env, memory_bytes)
    in_use_at_spill = []
    original_write_run = ctx.temp.write_run

    def spying_write_run(n_rows, row_bytes):
        in_use_at_spill.append(memory_bytes - ctx.broker.available_bytes)
        return original_write_run(n_rows, row_bytes)

    ctx.temp.write_run = spying_write_run
    values = rng.integers(0, 1 << 30, 1000)
    result = ExternalSort(ctx, policy=SpillPolicy.GRACEFUL).sort(values)
    assert result.spilled_rows > 0
    assert in_use_at_spill  # the spill path ran
    assert all(used > 0 for used in in_use_at_spill)
    assert ctx.broker.available_bytes == memory_bytes  # and released afterwards


def test_spill_grant_survives_tiny_memory(env, rng):
    """The max(2, ...) row clamp must not over-grant past the limit."""
    ctx = ctx_with_memory(env, 8)  # room for a single 8-byte row
    values = rng.integers(0, 1 << 30, 64)
    result = ExternalSort(ctx, policy=SpillPolicy.ALL_OR_NOTHING).sort(values)
    assert np.array_equal(result.values, np.sort(values))
    assert ctx.broker.available_bytes == 8


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 1 << 30), max_size=500),
    st.sampled_from([SpillPolicy.GRACEFUL, SpillPolicy.ALL_OR_NOTHING]),
    st.integers(16, 4096),
)
def test_sort_always_correct_property(values, policy, memory_bytes):
    from repro.sim.profile import DeviceProfile
    from repro.storage import StorageEnv

    env = StorageEnv(DeviceProfile(page_size=512), pool_pages=16)
    ctx = ExecContext(env, memory_bytes=memory_bytes)
    arr = np.asarray(values, dtype=np.int64)
    result = ExternalSort(ctx, policy=policy).sort(arr) if arr.size else None
    if result is not None:
        assert np.array_equal(result.values, np.sort(arr))
