"""What every scenario promises: its format, and that it is its spec.

Two kinds of test over the same tiny instance of each registered class
(the join twice: 2-D and with the optional memory axis):

* **format pins** — literal ``spec().params``, the *order* of the map's
  meta keys (JSON artifacts are compared byte for byte; goldens compare
  dicts and cover three scenarios) and two cell-store key digests
  recorded before the spec became the scenario's single description;
* **the round trip** — ``build_scenario(s.spec(), providers)`` has the
  same spec, the spec pickles, and the rebuilt scenario sweeps
  bit-identically.

Plus the registry's side of the same contract (a definition's scenario
is its spec bound to the session's providers) and the extension point's:
a user scenario that overrides the derived members itself keeps working.
"""

import pickle

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, BenchSession
from repro.bench.requests import MAP_DEFINITIONS
from repro.core.cellstore import SweepKeyer
from repro.core.parallel import ParallelSweep
from repro.core.parameter_space import Space1D, Space2D
from repro.core.runner import Jitter, RobustnessSweep
from repro.core.scenario import (
    SCENARIO_TYPES,
    Cell,
    EstimationErrorScenario,
    JoinScenario,
    MemorySweepScenario,
    OperatorBench,
    Scenario,
    ScenarioSpec,
    SinglePredicateScenario,
    SortSpillScenario,
    TwoPredicateScenario,
    build_scenario,
    register_scenario,
)
from repro.systems import SystemA, SystemConfig, build_three_systems
from repro.workloads import LineitemConfig, SinglePredicateQuery
from repro.workloads.selectivity import PredicateBuilder

CONFIG = SystemConfig(lineitem=LineitemConfig(n_rows=512), pool_pages=32)
SEL = Space1D.log2("sel", -2)
SEL_GRID = ["sel", [0.25, 0.5, 1.0]]
SYSTEM_META = ["budget_seconds", "systems", "n_rows_table", "scenario"]
OPERATOR_META = ["budget_seconds", "systems", "scenario"]


@pytest.fixture(scope="module")
def systems():
    return list(build_three_systems(CONFIG).values())


#: case id -> (builder over the three systems, expected spec params,
#: expected meta key order, store key at cell 0 without jitter, store key
#: at the last cell with jitter).
CASES = {
    "single-predicate": (
        lambda systems: SinglePredicateScenario(systems[:1], SEL),
        {"axes": [SEL_GRID], "column": None},
        ["sweep", "column", *SYSTEM_META],
        "77e338eec039543d46c41271184cf1b8",
        "ea5e0afe61ba478f0475d22ee49a1fb4",
    ),
    "two-predicate": (
        lambda systems: TwoPredicateScenario(
            systems, Space2D.log2("sel_a", "sel_b", -1)
        ),
        {"axes": [["sel_a", [0.5, 1.0]], ["sel_b", [0.5, 1.0]]]},
        ["sweep", "a_column", "b_column", *SYSTEM_META],
        "c7791a085586c019438bc8b3f37012da",
        "14d05613095c9bbcc84795b05ab4402c",
    ),
    "sort-spill": (
        lambda systems: SortSpillScenario(
            OperatorBench(), [64, 128], [4096, 65536], row_bytes=64, seed=3
        ),
        {
            "axes": [
                ["input_rows", [64.0, 128.0]],
                ["memory_bytes", [4096.0, 65536.0]],
            ],
            "row_bytes": 64,
            "seed": 3,
        },
        ["sweep", "row_bytes", "seed", *OPERATOR_META],
        "89b251656ec7ea9e83450e479ad48313",
        "c2f7e3017a041efeb129c36f8194048d",
    ),
    "memory-sweep": (
        lambda systems: MemorySweepScenario(
            systems[:1], SEL, [4096, 1 << 20]
        ),
        {
            "axes": [SEL_GRID, ["memory_bytes", [4096.0, 1048576.0]]],
            "column": None,
        },
        ["sweep", "column", *SYSTEM_META],
        "1265fab78e6da41e5a53b3693ab46353",
        "b80ce008b90dc8a508bbf38c136a44da",
    ),
    "estimation-error": (
        lambda systems: EstimationErrorScenario(
            systems[:1], SEL, (0.0, 1.5), error_bias=0.25, error_seed=11
        ),
        {
            "axes": [SEL_GRID, ["error_magnitude", [0.0, 1.5]]],
            "column": None,
            "error_bias": 0.25,
            "error_seed": 11,
        },
        ["sweep", "column", "error_bias", "error_seed", *SYSTEM_META],
        "c5e8e3609943808f161922c32cf85c5d",
        "d2f335d2d9bb7ec43586aebb7f428e14",
    ),
    "join": (
        lambda systems: JoinScenario(
            OperatorBench(), [32, 64], [32, 64],
            row_bytes=16, key_domain=256, seed=5,
        ),
        {
            "axes": [
                ["build_rows", [32.0, 64.0]],
                ["probe_rows", [32.0, 64.0]],
            ],
            "row_bytes": 16,
            "key_domain": 256,
            "seed": 5,
        },
        ["sweep", "row_bytes", "key_domain", "seed", *OPERATOR_META],
        "5eef1b23fe9cc2dbc61ebf283ab49ede",
        "baf429fdc7d7cc38e6003eab96e91ec0",
    ),
    "join-3d": (
        lambda systems: JoinScenario(
            OperatorBench(), [32, 64], [32, 64],
            memory_targets=[2048, 65536], key_domain=256,
        ),
        {
            "axes": [
                ["build_rows", [32.0, 64.0]],
                ["probe_rows", [32.0, 64.0]],
                ["memory_bytes", [2048.0, 65536.0]],
            ],
            "row_bytes": 16,
            "key_domain": 256,
            "seed": 2009,
        },
        ["sweep", "row_bytes", "key_domain", "seed", *OPERATOR_META],
        "553bcd9d71b169b2430a9b6f312a9c61",
        "1291d47b11281acb182e142d35bc448d",
    ),
}


def test_cases_cover_every_registered_scenario():
    assert {case.removesuffix("-3d") for case in CASES} == set(SCENARIO_TYPES)


def assert_identical(a, b):
    assert a.plan_ids == b.plan_ids
    assert np.array_equal(a.times, b.times, equal_nan=True)
    assert np.array_equal(a.aborted, b.aborted)
    assert np.array_equal(a.rows, b.rows)
    assert all(ours.matches(theirs) for ours, theirs in zip(a.axes, b.axes))
    assert list(a.meta.items()) == list(b.meta.items())


@pytest.mark.parametrize("case", CASES)
def test_format_is_pinned(case, systems):
    build, params, meta_keys, plain_key, jittered_key = CASES[case]
    scenario = build(systems)
    spec = scenario.spec()
    assert spec.name == case.removesuffix("-3d")
    assert spec.params == params
    assert list(spec.params) == list(params)
    assert list(scenario.run(budget_seconds=5.0).meta) == meta_keys

    plan_id = scenario.plan_ids_by_provider()[0][0]
    first = (0,) * len(scenario.grid_shape)
    last = tuple(n - 1 for n in scenario.grid_shape)
    plain = SweepKeyer(
        scenario, budget_seconds=5.0, memory_bytes=None, jitter=None,
        context="ctx",
    )
    jittered = SweepKeyer(
        scenario, budget_seconds=None, memory_bytes=1 << 20,
        jitter=Jitter(rel=0.01, abs=0.0005, seed=42), context="",
    )
    assert plain.key(plan_id, first) == plain_key
    assert jittered.key(plan_id, last) == jittered_key


@pytest.mark.parametrize("case", CASES)
def test_scenario_round_trips_through_its_spec(case, systems):
    scenario = CASES[case][0](systems)
    spec = scenario.spec()
    assert spec.grid_shape == scenario.grid_shape
    assert spec.n_cells == scenario.n_cells == int(np.prod(spec.grid_shape))
    assert pickle.loads(pickle.dumps(spec)) == spec

    rebuilt = build_scenario(spec, scenario.providers())
    assert type(rebuilt) is type(scenario)
    assert rebuilt.spec() == spec
    assert rebuilt.grid_shape == scenario.grid_shape
    sweep = RobustnessSweep(
        scenario.providers(), budget_seconds=5.0, memory_bytes=8192
    )
    assert_identical(sweep.sweep(rebuilt), sweep.sweep(scenario))


@pytest.mark.parametrize("name", MAP_DEFINITIONS)
def test_definition_scenario_is_its_spec(name):
    definition = MAP_DEFINITIONS[name]
    config = BenchConfig(
        n_rows=512, min_exp_1d=-3, min_exp_2d=-2, pool_pages=32,
        cache_dir=None, cell_cache_dir=None, n_workers=0,
    )
    spec = definition.spec(config)
    assert definition.scenario(BenchSession(config)).spec() == spec


# ---------------------------------------------------------------------------
# a user scenario written against the abstract members keeps working
# ---------------------------------------------------------------------------


class SelfDescribedScenario(Scenario):
    """Overrides axes/providers/spec/from_spec itself; never calls bind."""

    name = "self-described"

    def __init__(self, systems, memory_bytes=(16 << 10, 1 << 20)):
        self.system = list(systems)[0]
        self._axis = Space1D("memory_bytes", np.asarray(memory_bytes, dtype=float))
        builder = PredicateBuilder(self.system.table, self.system.config.b_column)
        predicate, _sel = builder.range_for_selectivity(0.25)
        self._query = SinglePredicateQuery(predicate)
        column = self.system.table.column(predicate.column)
        self._expected = int(np.count_nonzero(predicate.mask(column)))

    @property
    def axes(self):
        return (self._axis,)

    def providers(self):
        return [self.system]

    def _plans(self):
        plans = self.system.plans_for(self._query)
        return {pid: plan for pid, plan in plans.items() if "hash" in pid}

    def plan_ids_by_provider(self):
        return [list(self._plans())]

    def cell(self, idx):
        (i,) = idx
        return Cell(
            expected_rows=self._expected,
            plans=[(0, self._plans())],
            memory_bytes=int(self._axis.targets[i]),
        )

    def spec(self):
        grid = [[self._axis.name, self._axis.targets.tolist()]]
        return ScenarioSpec(self.name, {"axes": grid})

    @classmethod
    def from_spec(cls, spec, providers):
        (axis,) = spec.spec_axes()
        return cls(providers, memory_bytes=axis.targets)


def build_system_a():
    """Module-level factory: picklable for worker processes."""
    return [SystemA(CONFIG)]


def test_scenario_overriding_the_derived_members_still_works():
    register_scenario(SelfDescribedScenario)
    try:
        scenario = SelfDescribedScenario(build_system_a())
        serial = scenario.run()
        engine = ParallelSweep(build_system_a, n_workers=2, chunk_cells=1)
        parallel = engine.sweep(scenario.spec())
    finally:
        del SCENARIO_TYPES[SelfDescribedScenario.name]
    assert serial.plan_ids == ["A.cover_hash_rids", "A.cover_hash_index"]
    assert serial.grid_shape == (2,)
    assert serial.meta["sweep"] == serial.meta["scenario"] == "self-described"
    assert serial.meta["systems"] == ["A"]
    assert_identical(parallel, serial)
