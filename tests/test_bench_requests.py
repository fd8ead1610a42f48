"""The declarative map-request registry (repro.bench.requests)."""

import threading

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, BenchSession
from repro.bench.requests import (
    BLOCKED_OVERRIDES,
    MAP_DEFINITIONS,
    MapRequest,
    available_requests,
    definition_for,
)
from repro.errors import ExperimentError


def tiny_config(tmp_path, **overrides):
    defaults = dict(
        n_rows=512,
        min_exp_1d=-3,
        min_exp_2d=-2,
        pool_pages=32,
        cache_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


JOIN_OVERRIDES = {"join_rows": (64, 128), "join_key_domain": 256}


def test_registry_covers_every_session_map():
    assert available_requests() == [
        "estimation",
        "join",
        "memory_sweep",
        "single_predicate",
        "sort_spill",
        "two_predicate",
        "two_predicate_nojitter",
    ]
    # Every CLI scenario name is addressable as a request.
    for name in available_requests():
        assert name in MAP_DEFINITIONS


def test_definition_lookup_accepts_both_spellings():
    assert definition_for("sort-spill") is definition_for("sort_spill")
    with pytest.raises(ExperimentError, match="unknown scenario"):
        definition_for("bogus")


def test_request_spellings_are_one_request(tmp_path):
    """``sort-spill`` and ``sort_spill`` name one map: one request value,
    one fingerprint (the service's job id and dedup key)."""
    dashed, plain = MapRequest("sort-spill"), MapRequest("sort_spill")
    assert dashed.scenario == plain.scenario == "sort_spill"
    assert dashed == plain and hash(dashed) == hash(plain)
    assert dashed.to_dict() == plain.to_dict()
    base = tiny_config(tmp_path)
    assert dashed.fingerprint(base) == plain.fingerprint(base)
    # Underscore spellings keep the ids they always had.
    default = BenchConfig(
        n_rows=1 << 17, min_exp_1d=-16, min_exp_2d=-12, refine=False,
        refine_max_cells=0, n_workers=0, cache_dir=None,
        cell_cache_dir=None, trace=False,
    )
    assert plain.fingerprint(default) == "sort_spill-89e8d464935780cb"
    assert dashed.fingerprint(default) == "sort_spill-89e8d464935780cb"


def test_definition_grid_shapes_match_config(tmp_path):
    config = tiny_config(tmp_path)
    assert definition_for("single_predicate").spec(config).grid_shape == (4,)
    assert definition_for("two_predicate").spec(config).grid_shape == (3, 3)
    assert definition_for("sort_spill").spec(config).grid_shape == (6, 4)
    assert definition_for("memory_sweep").spec(config).grid_shape == (3, 5)
    assert definition_for("join").spec(config).grid_shape == (5, 5)
    assert definition_for("estimation").spec(config).grid_shape == (3, 5)
    assert definition_for("join").spec(config).n_cells == 25


def test_request_requires_known_scenario():
    with pytest.raises(ExperimentError, match="unknown scenario"):
        MapRequest("not_a_scenario")


def test_request_rejects_unknown_and_blocked_knobs(tmp_path):
    base = tiny_config(tmp_path)
    with pytest.raises(ExperimentError, match="unknown config knob"):
        MapRequest("join", {"warp_factor": 9}).resolve(base)
    for knob in BLOCKED_OVERRIDES:
        with pytest.raises(ExperimentError, match="operator-controlled"):
            MapRequest("join", {knob: "anything"}).resolve(base)


def test_request_coerces_json_shapes(tmp_path):
    base = tiny_config(tmp_path)
    resolved = MapRequest(
        "join", {"join_rows": [64, 128], "n_rows": 1024.0}
    ).resolve(base)
    assert resolved.join_rows == (64, 128)
    assert resolved.n_rows == 1024 and isinstance(resolved.n_rows, int)
    resolved = MapRequest(
        "join", {"budget_scale": 3, "refine": True, "error_magnitudes": [0, 0.5]}
    ).resolve(base)
    assert (resolved.budget_scale, resolved.refine) == (3, True)
    assert resolved.error_magnitudes == (0, 0.5)
    # A value of the wrong kind for its field is refused by name.
    for knob, value in [
        ("n_rows", 1.5),
        ("n_rows", None),
        ("refine", 1),
        ("budget_scale", "3"),
        ("budget_scale", False),
        ("join_rows", []),
        ("join_rows", 64),
        ("join_rows", [64, None]),
    ]:
        with pytest.raises(ExperimentError, match=f"knob '{knob}' must be"):
            MapRequest("join", {knob: value}).resolve(base)


@pytest.mark.parametrize(
    "knob", ["sort_rows", "sort_memory", "memory_axis", "join_rows", "error_magnitudes"]
)
def test_an_axis_knob_must_be_non_empty_and_strictly_increasing(knob):
    """Every entry of an axis is a map column: an empty, repeated or
    descending axis is refused naming its knob, before any sweep."""
    axis = getattr(BenchConfig(), knob)
    for value in ((), (axis[0], axis[0]), tuple(reversed(axis))):
        with pytest.raises(
            ExperimentError, match=f"knob '{knob}' must be non-empty and strictly"
        ):
            BenchConfig(**{knob: value})


def test_request_resolve_is_pure_override(tmp_path):
    base = tiny_config(tmp_path)
    assert MapRequest("join").resolve(base) == base
    resolved = MapRequest("join", JOIN_OVERRIDES).resolve(base)
    assert resolved.join_rows == (64, 128)
    assert resolved.cache_dir == base.cache_dir  # untouched knobs survive


def test_request_fingerprint_addresses_resolved_config(tmp_path):
    base = tiny_config(tmp_path)
    plain = MapRequest("join").fingerprint(base)
    assert plain.startswith("join-")
    # Same resolved config, differently spelled -> the same address.
    spelled = MapRequest("join", {"seed": base.seed}).fingerprint(base)
    assert spelled == plain
    # Any result-shaping difference -> a different address.
    assert MapRequest("join", {"seed": 7}).fingerprint(base) != plain
    assert MapRequest("sort_spill").fingerprint(base) != plain
    # Worker counts do not shape results, so they do not shape addresses.
    workers = tiny_config(tmp_path, n_workers=4)
    assert MapRequest("join").fingerprint(workers) == plain


def test_request_round_trips_through_json_dict():
    request = MapRequest("join", JOIN_OVERRIDES)
    data = request.to_dict()
    assert data == {
        "scenario": "join",
        "overrides": {"join_key_domain": 256, "join_rows": [64, 128]},
    }
    assert MapRequest.from_dict(data) == request


def test_request_from_dict_is_strict():
    with pytest.raises(ExperimentError, match="must be an object"):
        MapRequest.from_dict(["join"])
    with pytest.raises(ExperimentError, match="needs a 'scenario'"):
        MapRequest.from_dict({"overrides": {}})
    with pytest.raises(ExperimentError, match="unknown request keys"):
        MapRequest.from_dict({"scenario": "join", "overides": {}})
    with pytest.raises(ExperimentError, match="'overrides' must be"):
        MapRequest.from_dict({"scenario": "join", "overrides": [1]})


def test_request_map_matches_named_method(tmp_path):
    config = tiny_config(tmp_path, **JOIN_OVERRIDES)
    direct = BenchSession(config).request_map(MapRequest("join"))
    served = BenchSession(tiny_config(tmp_path / "other")).request_map(
        MapRequest("join", JOIN_OVERRIDES)
    )
    # Byte-identical: a request resolving to the same knobs is the same
    # map, no matter which session computed it.
    assert served.plan_ids == direct.plan_ids
    assert np.array_equal(served.times, direct.times, equal_nan=True)
    assert served.meta == direct.meta


def test_request_map_on_own_config_memoizes(tmp_path):
    session = BenchSession(tiny_config(tmp_path, **JOIN_OVERRIDES))
    first = session.request_map(MapRequest("join"))
    assert session.request_map(MapRequest("join")) is first
    assert session.request_map(MapRequest("join")) is first


def test_concurrent_same_map_computes_once(tmp_path, monkeypatch):
    """Satellite: _cached's per-key locks make one compute, not two."""
    import repro.bench.harness as harness_module

    calls = []
    real = harness_module.compute_map

    def counting(session, definition):
        calls.append(definition.name)
        import time

        time.sleep(0.05)  # widen the race window
        return real(session, definition)

    monkeypatch.setattr(harness_module, "compute_map", counting)
    session = BenchSession(tiny_config(tmp_path, **JOIN_OVERRIDES))
    results = [None, None]

    def worker(slot):
        results[slot] = session.request_map(MapRequest("join"))

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert calls == ["join"]
    assert results[0] is results[1]


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("two_predicate", {"memory_bytes": 511}),
        ("memory_sweep", {"memory_axis": (1, 511)}),
    ],
)
def test_map_whose_bitmap_does_not_fit_finishes(tmp_path, scenario, overrides):
    """A 4096-row table's rid bitmap takes 512 bytes: a smaller workspace
    makes the sorted fetch sort its rids instead of failing the sweep."""
    config = tiny_config(tmp_path, n_rows=4096, **overrides)
    mapdata = BenchSession(config).request_map(MapRequest(scenario))
    assert np.isfinite(mapdata.times).any()
