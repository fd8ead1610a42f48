"""Unit tests for the virtual clock and stopwatch."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.sim.clock import SimClock, Stopwatch


def test_clock_starts_at_zero():
    assert SimClock().now == 0.0


def test_clock_custom_start():
    """Every measurement epoch starts at zero; there is no other start."""
    with pytest.raises(TypeError):
        SimClock(5.0)
    clock = SimClock()
    clock.advance(5.0)
    with pytest.raises(TypeError):
        clock.reset(1.0)
    clock.reset()
    assert clock.now == 0.0


def test_clock_rejects_negative_start():
    with pytest.raises(TypeError):
        SimClock(-1.0)


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_advance_rejects_negative():
    clock = SimClock()
    with pytest.raises(ExecutionError):
        clock.advance(-0.1)


def test_advance_zero_is_noop():
    clock = SimClock()
    clock.advance(0.0)
    assert clock.now == 0.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
def test_clock_monotone_under_any_advances(durations):
    clock = SimClock()
    last = 0.0
    for duration in durations:
        clock.advance(duration)
        assert clock.now >= last
        last = clock.now
    assert clock.now == pytest.approx(sum(durations))


def test_stopwatch_measures_delta():
    clock = SimClock()
    watch = Stopwatch(clock)
    clock.advance(1.0)
    with watch:
        clock.advance(2.5)
    assert watch.elapsed == pytest.approx(2.5)
    assert clock.now == pytest.approx(3.5)


def test_stopwatch_reusable():
    clock = SimClock()
    watch = Stopwatch(clock)
    with watch:
        clock.advance(1.0)
    first = watch.elapsed
    with watch:
        clock.advance(2.0)
    assert first == pytest.approx(1.0)
    assert watch.elapsed == pytest.approx(2.0)


def test_clock_repr_mentions_time():
    clock = SimClock()
    clock.advance(1.25)
    assert "1.25" in repr(clock)
