"""Integration tests for the sweep runner (small scale)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D, Space2D
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import SinglePredicateScenario, TwoPredicateScenario
from repro.errors import ExperimentError
from repro.systems import SystemA, SystemConfig, build_three_systems
from repro.workloads import LineitemConfig

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=2048), pool_pages=64)


@pytest.fixture(scope="module")
def system_a():
    return SystemA(CONFIG)


def test_sweep_requires_systems():
    with pytest.raises(ExperimentError):
        RobustnessSweep([])


def test_1d_sweep_shape_and_monotone_rows(system_a):
    sweep = RobustnessSweep([system_a])
    space = Space1D.log2("sel", -6)
    mapdata = sweep.sweep(SinglePredicateScenario([system_a], space))
    assert mapdata.times.shape == (7, 7)
    assert not mapdata.is_2d
    assert np.all(np.diff(mapdata.rows) >= 0)  # result sizes grow
    assert mapdata.meta["sweep"] == "single-predicate"
    assert not mapdata.aborted.any()


def test_1d_sweep_plan_filter(system_a):
    """Plan-subset sweeps are gone from both engines and from
    ``Scenario.run``: the keyword is refused, never swallowed."""
    scenario = SinglePredicateScenario([system_a], Space1D.log2("sel", -3))
    keep = {"plan_filter": lambda plan_id: "table_scan" in plan_id}
    with pytest.raises(TypeError, match="plan_filter"):
        RobustnessSweep([system_a]).sweep(scenario, **keep)
    with pytest.raises(TypeError, match="plan_filter"):
        ParallelSweep(lambda: [system_a], n_workers=2).sweep(scenario.spec(), **keep)
    with pytest.raises(TypeError, match="plan_filter"):
        scenario.run(**keep)
    with pytest.raises(TypeError, match="verify_agreement"):
        scenario.run(verify_agreement=False)


def test_1d_sweep_deterministic(system_a):
    sweep = RobustnessSweep([system_a])
    space = Space1D.log2("sel", -4)
    m1 = sweep.sweep(SinglePredicateScenario([system_a], space))
    m2 = sweep.sweep(SinglePredicateScenario([system_a], space))
    assert np.allclose(m1.times, m2.times, equal_nan=True)


def test_budget_censors_expensive_plans(system_a):
    space = Space1D.log2("sel", -2)
    sweep = RobustnessSweep([system_a], budget_seconds=1e-4)
    mapdata = sweep.sweep(SinglePredicateScenario([system_a], space))
    assert mapdata.aborted.any()
    assert np.isnan(mapdata.times[mapdata.aborted]).all()


def test_2d_sweep_all_systems():
    systems = build_three_systems(CONFIG)
    sweep = RobustnessSweep(list(systems.values()))
    space = Space2D.log2("a", "b", -3)
    mapdata = sweep.sweep(TwoPredicateScenario(sweep.systems, space))
    assert mapdata.is_2d
    assert mapdata.times.shape == (15, 4, 4)
    assert mapdata.meta["systems"] == ["A", "B", "C"]
    # rows grow along both axes
    assert np.all(np.diff(mapdata.rows, axis=0) >= 0)
    assert np.all(np.diff(mapdata.rows, axis=1) >= 0)


def test_jitter_deterministic_and_small(system_a):
    space = Space1D.log2("sel", -3)
    jittered = RobustnessSweep([system_a], jitter=Jitter(rel=0.05, abs=0.0, seed=1))
    clean = RobustnessSweep([system_a])
    scenario = SinglePredicateScenario([system_a], space)
    m_jitter_1 = jittered.sweep(scenario)
    m_jitter_2 = jittered.sweep(scenario)
    m_clean = clean.sweep(scenario)
    assert np.allclose(m_jitter_1.times, m_jitter_2.times)
    assert not np.allclose(m_jitter_1.times, m_clean.times)
    assert np.allclose(m_jitter_1.times, m_clean.times, rtol=0.4)


def _jitter_in_subprocess(hash_seed: str) -> list[float]:
    """Jittered times computed in a fresh interpreter with a fixed hash seed."""
    code = (
        "from repro.core.runner import Jitter\n"
        "jitter = Jitter(rel=0.05, abs=0.001, seed=17)\n"
        "values = [jitter.apply(1.0, 'A.merge_ab', (i, i + 1)) for i in range(8)]\n"
        "print(repr(values))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return eval(out.stdout)  # list of floats printed with repr


def test_jitter_identical_across_hash_seeds():
    """Regression: builtin hash() made jitter vary with PYTHONHASHSEED."""
    values_a = _jitter_in_subprocess("1")
    values_b = _jitter_in_subprocess("31337")
    assert values_a == values_b
    # ... and the in-process values agree with the subprocess ones.
    jitter = Jitter(rel=0.05, abs=0.001, seed=17)
    local = [jitter.apply(1.0, "A.merge_ab", (i, i + 1)) for i in range(8)]
    assert local == values_a


def test_jitter_varies_with_seed_plan_and_cell():
    jitter = Jitter(rel=0.05, abs=0.001, seed=17)
    base = jitter.apply(1.0, "p", (0,))
    assert jitter.apply(1.0, "p", (1,)) != base
    assert jitter.apply(1.0, "q", (0,)) != base
    assert Jitter(rel=0.05, abs=0.001, seed=18).apply(1.0, "p", (0,)) != base


def test_jitter_never_negative():
    jitter = Jitter(rel=5.0, abs=0.0, seed=3)
    for i in range(50):
        assert jitter.apply(0.001, "p", (i,)) >= 0.0


def test_progress_callback(system_a):
    messages = []
    sweep = RobustnessSweep([system_a], progress=messages.append)
    sweep.sweep(
        SinglePredicateScenario([system_a], Space1D.log2("sel", -2))
    )
    assert len(messages) == 3
