"""Unit tests for ExecContext, memory broker, and cost budgets."""

import pytest

from repro.errors import MemoryGrantError
from repro.executor.context import CostBudgetExceeded, ExecContext
from repro.executor.memory import MemoryBroker


def test_context_defaults_memory_from_profile(env):
    ctx = ExecContext(env)
    assert ctx.broker.limit_bytes == env.profile.memory_bytes


def test_charge_advances_clock(env):
    ctx = ExecContext(env)
    before = env.clock.now
    ctx.charge(1000, 1e-6)
    assert env.clock.now - before == pytest.approx(1e-3)


def test_charge_sort_cpu_nlogn(env):
    ctx = ExecContext(env)
    before = env.clock.now
    ctx.charge_sort_cpu(1024)
    expected = 1024 * 10 * env.profile.cpu_compare
    assert env.clock.now - before == pytest.approx(expected)


def test_charge_sort_cpu_trivial_inputs(env):
    ctx = ExecContext(env)
    before = env.clock.now
    ctx.charge_sort_cpu(0)
    ctx.charge_sort_cpu(1)
    assert env.clock.now == before


def test_budget_triggers(env):
    ctx = ExecContext(env, budget_seconds=0.5)
    ctx.arm_budget()
    env.clock.advance(0.4)
    ctx.check_budget()  # still fine
    env.clock.advance(0.2)
    with pytest.raises(CostBudgetExceeded) as exc:
        ctx.check_budget()
    assert exc.value.budget_seconds == 0.5
    assert exc.value.spent_seconds >= 0.6


def test_no_budget_never_triggers(env):
    ctx = ExecContext(env)
    env.clock.advance(1e9)
    ctx.check_budget()


def test_arm_budget_resets_window(env):
    ctx = ExecContext(env, budget_seconds=1.0)
    env.clock.advance(10.0)
    ctx.arm_budget()
    env.clock.advance(0.5)
    ctx.check_budget()


# ---------------------------------------------------------------------------
# MemoryBroker
# ---------------------------------------------------------------------------


def test_broker_grant_and_release():
    broker = MemoryBroker(1000)
    grant = broker.grant(600)
    assert broker.available_bytes == 400
    grant.release()
    assert broker.available_bytes == 1000


def test_broker_over_limit_raises():
    broker = MemoryBroker(1000)
    with pytest.raises(MemoryGrantError):
        broker.grant(1001)


def test_broker_try_grant_returns_none():
    broker = MemoryBroker(1000)
    held = broker.grant(900)
    assert broker.try_grant(200) is None
    assert broker.try_grant(100) is not None
    held.release()


def test_double_release_raises():
    broker = MemoryBroker(1000)
    grant = broker.grant(10)
    grant.release()
    with pytest.raises(MemoryGrantError):
        grant.release()


def test_grant_context_manager():
    broker = MemoryBroker(1000)
    with broker.grant(500):
        assert broker.available_bytes == 500
    assert broker.available_bytes == 1000


def test_negative_grant_rejected():
    broker = MemoryBroker(1000)
    with pytest.raises(MemoryGrantError):
        broker.grant(-1)


def test_broker_limit_positive():
    with pytest.raises(MemoryGrantError):
        MemoryBroker(0)
