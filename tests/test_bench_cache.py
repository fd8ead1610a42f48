"""Disk-cache keys and staleness: the full-config fingerprint bugfix."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, BenchSession
from repro.bench.requests import MapRequest, available_requests
from repro.core.mapdata import MapData


def tiny_config(tmp_path, **overrides) -> BenchConfig:
    defaults = dict(
        n_rows=512,
        min_exp_1d=-3,
        min_exp_2d=-2,
        pool_pages=32,
        cache_dir=str(tmp_path),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


def test_fingerprint_tracks_every_shaping_knob(tmp_path):
    base = tiny_config(tmp_path)
    assert base.fingerprint() == tiny_config(tmp_path).fingerprint()
    for change in (
        {"min_exp_1d": -4},
        {"min_exp_2d": -3},
        {"budget_scale": 10.0},
        {"memory_bytes": 1 << 20},
        {"pool_pages": 64},
        {"n_rows": 1024},
        {"seed": 7},
    ):
        assert tiny_config(tmp_path, **change).fingerprint() != base.fingerprint()


def test_fingerprint_ignores_workers_and_cache_dir(tmp_path):
    base = tiny_config(tmp_path)
    assert tiny_config(tmp_path, n_workers=4).fingerprint() == base.fingerprint()
    assert (
        dataclasses.replace(base, cache_dir=None).fingerprint()
        == base.fingerprint()
    )


def test_cache_path_embeds_fingerprint(tmp_path):
    base = tiny_config(tmp_path)
    changed = tiny_config(tmp_path, budget_scale=10.0)
    assert base.cache_path("single_predicate") != changed.cache_path(
        "single_predicate"
    )


def test_changed_config_does_not_reuse_stale_cache(tmp_path):
    config = tiny_config(tmp_path)
    first = BenchSession(config).request_map(MapRequest("single_predicate"))
    assert first.grid_shape == (4,)
    # Regression: with rows/seed-only keys, shrinking the grid reused the
    # old 4-point map; the fingerprinted key computes a fresh 3-point one.
    shrunk = tiny_config(tmp_path, min_exp_1d=-2)
    second = BenchSession(shrunk).request_map(MapRequest("single_predicate"))
    assert second.grid_shape == (3,)


def test_cache_hit_round_trips_bit_identically(tmp_path):
    config = tiny_config(tmp_path)
    computed = BenchSession(config).request_map(MapRequest("single_predicate"))
    cached = BenchSession(config).request_map(MapRequest("single_predicate"))
    assert np.array_equal(cached.times, computed.times, equal_nan=True)
    assert np.array_equal(cached.rows, computed.rows)
    assert cached.meta == computed.meta
    assert cached.meta["config_fingerprint"] == config.fingerprint()


def test_harness_parallel_map_bit_identical_to_serial(tmp_path):
    serial = BenchSession(tiny_config(tmp_path / "s")).request_map(MapRequest("two_predicate"))
    parallel = BenchSession(
        tiny_config(tmp_path / "p", n_workers=2)
    ).request_map(MapRequest("two_predicate"))
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times, equal_nan=True)
    assert np.array_equal(parallel.aborted, serial.aborted)
    assert np.array_equal(parallel.rows, serial.rows)
    assert parallel.meta == serial.meta


def test_scenario_maps_cached_and_validated(tmp_path):
    config = tiny_config(
        tmp_path, sort_rows=(256, 512, 1024), sort_memory=(32 << 10, 64 << 10)
    )
    computed = BenchSession(config).request_map(MapRequest("sort_spill"))
    assert computed.grid_shape == (3, 2)
    assert computed.meta["scenario"] == "sort-spill"
    path = config.cache_path("scenario_sort_spill")
    assert path is not None and path.exists()
    cached = BenchSession(config).request_map(MapRequest("sort_spill"))
    assert np.array_equal(cached.times, computed.times, equal_nan=True)
    assert cached.meta == computed.meta
    # Changing a scenario-shaping knob gets a fresh cache file.
    changed = tiny_config(
        tmp_path, sort_rows=(256, 512), sort_memory=(32 << 10, 64 << 10)
    )
    assert changed.fingerprint() != config.fingerprint()
    assert BenchSession(changed).request_map(MapRequest("sort_spill")).grid_shape == (2, 2)


def test_scenario_map_unknown_name(tmp_path):
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError, match="unknown scenario"):
        BenchSession(tiny_config(tmp_path)).request_map(MapRequest("nope"))


def test_harness_scenario_parallel_bit_identical_to_serial(tmp_path):
    overrides = dict(memory_axis=(8 << 10, 512 << 10))
    serial = BenchSession(
        tiny_config(tmp_path / "s", **overrides)
    ).request_map(MapRequest("memory_sweep"))
    parallel = BenchSession(
        tiny_config(tmp_path / "p", n_workers=2, **overrides)
    ).request_map(MapRequest("memory_sweep"))
    assert parallel.plan_ids == serial.plan_ids
    assert np.array_equal(parallel.times, serial.times, equal_nan=True)
    assert np.array_equal(parallel.aborted, serial.aborted)
    assert np.array_equal(parallel.rows, serial.rows)
    assert parallel.meta == serial.meta


def test_cli_scenario_smoke(tmp_path, monkeypatch):
    from repro.bench.cli import main

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-2")
    out_dir = tmp_path / "scenarios"
    code = main([str(out_dir), "--scenario", "sort_spill"])
    assert code == 0
    saved = MapData.load(out_dir / "scenario_sort_spill.json")
    assert saved.meta["scenario"] == "sort-spill"
    # 2-D scenario maps come with Fig 4/5-style heat maps per plan.
    svgs = sorted(out_dir.glob("scenario_sort_spill_*.svg"))
    pngs = sorted(out_dir.glob("scenario_sort_spill_*.png"))
    assert len(svgs) == saved.n_plans and len(pngs) == saved.n_plans
    assert svgs[0].read_text().lstrip().startswith("<svg")
    assert pngs[0].read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
    assert main([str(out_dir), "--scenario", "bogus"]) == 2


def test_join_map_cached_and_reloaded(tmp_path, capsys):
    config = tiny_config(tmp_path, join_rows=(64, 128), join_key_domain=256)
    first = BenchSession(config).request_map(MapRequest("join"))
    assert first.grid_shape == (2, 2)
    assert first.plan_ids == [
        "join.merge",
        "join.hash.graceful",
        "join.hash.all-or-nothing",
        "join.inl",
    ]
    reloaded = BenchSession(config).request_map(MapRequest("join"))  # fresh session, disk cache
    assert np.array_equal(reloaded.times, first.times, equal_nan=True)
    assert reloaded.meta == first.meta
    # Shrinking the grid must invalidate, not reuse, the cache.
    smaller = tiny_config(tmp_path, join_rows=(64,), join_key_domain=256)
    assert BenchSession(smaller).request_map(MapRequest("join")).grid_shape == (1, 1)


def test_cli_join_scenario_prints_symmetry(tmp_path, monkeypatch):
    from repro.bench.cli import main

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    out_dir = tmp_path / "scenarios"
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(cache_dir))
    import repro.bench.harness as harness_module

    # Shrink the join grid through a patched default config (the CLI
    # builds BenchConfig from the environment).
    original = harness_module.BenchConfig

    def small_config(*args, **kwargs):
        kwargs.setdefault("join_rows", (64, 128))
        kwargs.setdefault("join_key_domain", 256)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness_module, "BenchConfig", small_config)
    monkeypatch.setattr("repro.bench.cli.BenchConfig", small_config)
    code = main([str(out_dir), "--scenario", "join"])
    assert code == 0
    saved = MapData.load(out_dir / "scenario_join.json")
    assert saved.meta["scenario"] == "join"
    assert len(list(out_dir.glob("scenario_join_*.svg"))) == 4
    assert len(list(out_dir.glob("scenario_join_*.png"))) == 4


def test_refine_changes_fingerprint(tmp_path):
    base = tiny_config(tmp_path)
    assert tiny_config(tmp_path, refine=True).fingerprint() != base.fingerprint()
    assert (
        tiny_config(tmp_path, refine=True, refine_max_cells=7).fingerprint()
        != tiny_config(tmp_path, refine=True).fingerprint()
    )


def test_refined_map_cached_raw_and_returned_densified(tmp_path):
    config = tiny_config(tmp_path, min_exp_1d=-8, refine=True)
    session = BenchSession(config)
    mapdata = session.request_map(MapRequest("single_predicate"))
    # The session hands out the full-grid interpolation view ...
    assert not mapdata.is_partial
    assert mapdata.meta["policy"] == "adaptive-refine"
    measured = mapdata.meta["measured_cells"]
    assert 0 < len(measured) < mapdata.times[0].size
    assert session.request_map(MapRequest("single_predicate")) is mapdata  # memoized
    # ... while the disk cache stores the raw sparse measurement.
    raw = MapData.load(config.cache_path("single_predicate"))
    assert raw.is_partial
    assert raw.filled_cells.tolist() == sorted(measured)
    # A fresh session reloads the cache and densifies identically.
    reloaded = BenchSession(config).request_map(MapRequest("single_predicate"))
    assert np.array_equal(reloaded.times, mapdata.times, equal_nan=True)
    assert reloaded.meta == mapdata.meta


def test_cache_validation_is_policy_aware(tmp_path):
    refined = tiny_config(tmp_path, min_exp_1d=-8, refine=True)
    session = BenchSession(refined)
    session.request_map(MapRequest("single_predicate"))
    sparse = MapData.load(refined.cache_path("single_predicate"))
    assert session._cache_valid(sparse, "single_predicate")
    # A dense-looking map must not satisfy a refine config (nor a sparse
    # one a dense config), even at matching fingerprint and grid shape.
    dense_like = MapData.from_dict(sparse.to_dict())
    dense_like.meta.pop("policy")
    dense_like.meta.pop("cells")
    assert not session._cache_valid(dense_like, "single_predicate")
    sparse.meta["config_fingerprint"] = tiny_config(
        tmp_path, min_exp_1d=-8
    ).fingerprint()
    dense_session = BenchSession(tiny_config(tmp_path, min_exp_1d=-8))
    assert not dense_session._cache_valid(sparse, "single_predicate")


def test_refined_scenario_map_agrees_with_dense_on_measured(tmp_path):
    overrides = dict(join_rows=(64, 96, 128, 192, 256), join_key_domain=256)
    dense = BenchSession(tiny_config(tmp_path / "d", **overrides)).request_map(MapRequest("join"))
    refined = BenchSession(
        tiny_config(tmp_path / "r", refine=True, **overrides)
    ).request_map(MapRequest("join"))
    assert refined.grid_shape == dense.grid_shape
    cells = np.asarray(refined.meta["measured_cells"], dtype=int)
    flat_r = refined.times.reshape(refined.n_plans, -1)[:, cells]
    flat_d = dense.times.reshape(dense.n_plans, -1)[:, cells]
    assert np.array_equal(flat_r, flat_d, equal_nan=True)


def test_cli_refine_scenario_smoke(tmp_path, monkeypatch):
    from repro.bench.cli import main

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-5")
    out_dir = tmp_path / "scenarios"
    code = main(
        [str(out_dir), "--scenario", "memory_sweep", "--refine", "--max-cells", "9"]
    )
    assert code == 0
    saved = MapData.load(out_dir / "scenario_memory_sweep.json")
    assert saved.meta["policy"] == "adaptive-refine"
    assert len(saved.meta["measured_cells"]) <= 9
    assert not saved.is_partial  # written densified, coverage in meta


def test_corrupt_fingerprint_triggers_recompute(tmp_path):
    config = tiny_config(tmp_path)
    computed = BenchSession(config).request_map(MapRequest("single_predicate"))
    path = config.cache_path("single_predicate")
    assert path is not None and path.exists()
    # Tamper: pretend the file came from a different config.
    stale = MapData.load(path)
    stale.meta["config_fingerprint"] = "0" * 16
    stale.save(path)
    recomputed = BenchSession(config).request_map(MapRequest("single_predicate"))
    assert recomputed.meta["config_fingerprint"] == config.fingerprint()
    assert np.array_equal(recomputed.times, computed.times, equal_nan=True)


# ---------------------------------------------------------------------------
# estimation scenario, choice maps, and the error-model fingerprint
# ---------------------------------------------------------------------------


def test_error_model_knobs_are_fingerprinted(tmp_path):
    base = tiny_config(tmp_path)
    for change in (
        {"error_magnitudes": (0.0, 1.0)},
        {"error_bias": 0.5},
        {"error_seed": 7},
    ):
        assert tiny_config(tmp_path, **change).fingerprint() != base.fingerprint()


def test_estimation_map_cached_and_validated(tmp_path):
    config = tiny_config(tmp_path, error_magnitudes=(0.0, 2.0))
    session = BenchSession(config)
    mapdata = session.request_map(MapRequest("estimation"))
    assert mapdata.grid_shape == (3, 2)
    assert [axis.name for axis in mapdata.axes] == [
        "selectivity",
        "error_magnitude",
    ]
    cache_file = config.cache_path("scenario_estimation")
    assert cache_file is not None and cache_file.exists()
    reloaded = BenchSession(config).request_map(MapRequest("estimation"))
    assert np.array_equal(mapdata.times, reloaded.times, equal_nan=True)


def test_choice_maps_deterministic_across_sessions(tmp_path):
    config = tiny_config(tmp_path, error_magnitudes=(0.0, 2.0))
    first = BenchSession(config).choice_maps()
    second = BenchSession(config).choice_maps()
    assert sorted(first) == [
        "min-estimated-cost",
        "min-worst-regret",
        "penalty-aware",
    ]
    for name in first:
        assert np.array_equal(first[name].choices, second[name].choices)
        assert np.array_equal(
            first[name].regret, second[name].regret, equal_nan=True
        )
        # Same session: memoized object identity.
        session = BenchSession(config)
        assert session.choice_maps()[name] is session.choice_maps()[name]


def test_choice_maps_zero_error_column_matches_truth(tmp_path):
    """At magnitude 0 every policy sees exact estimates, so the classic
    policy's regret column equals its zero-uncertainty robust twin's."""
    config = tiny_config(tmp_path, error_magnitudes=(0.0, 3.0))
    choices = BenchSession(config).choice_maps()
    classic = choices["min-estimated-cost"]
    robust = choices["min-worst-regret"]
    assert np.array_equal(classic.choices[:, 0], robust.choices[:, 0])


def test_cli_estimation_regret_smoke(tmp_path, monkeypatch):
    from repro.bench import cli

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-2")
    out_dir = tmp_path / "out"
    code = cli.main([str(out_dir), "--scenario", "estimation", "--regret"])
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "scenario_estimation.json" in names
    for policy in ("min-estimated-cost", "min-worst-regret", "penalty-aware"):
        assert f"choice_{policy}.svg" in names
        assert f"choice_{policy}.json" in names
        assert f"regret_{policy}.svg" in names
        assert f"regret_{policy}.png" in names


def test_cli_regret_requires_estimation(tmp_path, capsys):
    from repro.bench import cli

    code = cli.main([str(tmp_path), "--scenario", "join", "--regret"])
    assert code == 2
    assert "estimation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--refine", "--max-cells", "-5"], {}, "knob 'refine_max_cells' must be at least 0"),
        (["--max-cells", "9"], {}, "--max-cells needs --refine"),
        # These three ran serially without a word, or ended in a traceback.
        (["--workers", "-5"], {}, "knob 'n_workers' must be at least -1"),
        ([], {"REPRO_BENCH_MIN_EXP": "2"}, "knob 'min_exp_1d' must be at most 0"),
        ([], {"REPRO_BENCH_ROWS": "abc"}, "REPRO_BENCH_ROWS must be an integer, got 'abc'"),
    ],
    ids=["negative", "without-refine", "workers", "positive-exponent", "rows-not-a-number"],
)
def test_cli_max_cells_misuse_is_a_usage_error(
    tmp_path, capsys, monkeypatch, flags, env, message
):
    from repro.bench import cli

    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as refused:
        cli.main([str(tmp_path / "out"), "--scenario", "join", *flags])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_scenario_lists_available(tmp_path, capsys):
    from repro.bench import cli

    code = cli.main([str(tmp_path), "--scenario", "nope"])
    assert code == 2
    err = capsys.readouterr().err
    for name in available_requests():
        assert name in err


def test_cli_accepts_every_name_the_service_accepts(tmp_path, monkeypatch):
    """One registry: a name ``POST /maps`` takes is a ``--scenario`` name."""
    from repro.bench import cli

    monkeypatch.setenv("REPRO_BENCH_ROWS", "512")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-2")
    out_dir = tmp_path / "out"
    code = cli.main([str(out_dir), "--scenario", "two_predicate_nojitter"])
    assert code == 0
    assert (out_dir / "scenario_two_predicate_nojitter.json").exists()


def test_cli_cell_cache_compact(tmp_path, capsys, monkeypatch):
    from repro.bench import cli

    store_dir = tmp_path / "cells"
    config = tiny_config(
        tmp_path,
        cache_dir=None,
        cell_cache_dir=str(store_dir),
        join_rows=(64, 128),
        join_key_domain=256,
    )
    # Two sessions over one store: the rerun writes nothing new, so the
    # shards hold exactly one generation of entries to keep.
    BenchSession(config).request_map(MapRequest("join"))
    BenchSession(config).request_map(MapRequest("join"))
    code = cli.main(
        ["out", "--cell-cache", str(store_dir), "--cell-cache-compact"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "reclaimed" in out and "kept" in out
    # Still a loadable, warm store afterwards.
    again = BenchSession(config)
    mapdata = again.request_map(MapRequest("join"))
    assert again.cell_store().stats()["cell_misses"] == 0
    assert mapdata.grid_shape == (2, 2)


def test_retired_environment_twins_are_not_read(monkeypatch):
    """Workers, refinement and the service's port and pool size are set by
    flags only; junk in their old variables changes nothing."""
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    plain = BenchConfig()
    for name in (
        "REPRO_BENCH_WORKERS",
        "REPRO_BENCH_REFINE",
        "REPRO_BENCH_MAX_CELLS",
        "REPRO_SERVICE_PORT",
        "REPRO_SERVICE_WORKERS",
    ):
        monkeypatch.setenv(name, "junk")
    assert BenchConfig() == plain
    assert (plain.n_workers, plain.refine, plain.refine_max_cells) == (0, False, 0)


def test_cli_flags_leave_the_environment_alone(tmp_path, monkeypatch):
    """Flags build the config directly; ``REPRO_*`` are read-only defaults."""
    from repro.bench import cli

    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-2")
    before = dict(os.environ)
    store_dir = tmp_path / "cells"
    code = cli.main(
        [
            str(tmp_path / "out"), "--quiet", "--scenario", "memory_sweep",
            "--rows", "4096", "--cell-cache", str(store_dir),
            "--workers", "1", "--refine", "--max-cells", "9", "--trace",
        ]
    )
    assert code == 0
    assert dict(os.environ) == before
    saved = MapData.load(tmp_path / "out" / "scenario_memory_sweep.json")
    assert saved.meta["policy"] == "adaptive-refine"  # --refine took effect
    assert any(store_dir.iterdir())  # and so did --cell-cache


def test_cli_figure_ids_are_stripped(tmp_path, monkeypatch, capsys):
    from repro.bench import cli

    monkeypatch.setenv("REPRO_BENCH_ROWS", "2048")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP", "-4")
    cli.main([str(tmp_path), "--quiet", "--figures", " fig01 , fig02,"])
    out = capsys.readouterr().out
    written = {path.name[:5] for path in tmp_path.iterdir()}
    assert written == {"fig01", "fig02"}
    assert "Fig 1:" in out and "Fig 2:" in out
    with pytest.raises(SystemExit):
        cli.main([str(tmp_path), "--figures", "fig01, nope"])
    assert "unknown figures: ['nope']" in capsys.readouterr().err


def test_cli_cell_cache_compact_requires_directory(tmp_path, monkeypatch):
    from repro.bench import cli

    monkeypatch.delenv("REPRO_BENCH_CELL_CACHE", raising=False)
    with pytest.raises(SystemExit):
        cli.main([str(tmp_path), "--cell-cache-compact"])


def test_choice_maps_bit_identical_serial_vs_parallel(tmp_path):
    """The acceptance contract: choice/regret maps do not depend on the
    sweep path (serial vs worker processes) or on cache reuse."""
    overrides = dict(error_magnitudes=(0.0, 2.0))
    serial = BenchSession(
        tiny_config(tmp_path / "s", **overrides)
    ).choice_maps()
    parallel = BenchSession(
        tiny_config(tmp_path / "p", n_workers=2, **overrides)
    ).choice_maps()
    assert sorted(serial) == sorted(parallel)
    for name in serial:
        assert serial[name].plan_ids == parallel[name].plan_ids
        assert np.array_equal(serial[name].choices, parallel[name].choices)
        assert np.array_equal(
            serial[name].regret, parallel[name].regret, equal_nan=True
        )


def test_pool_maps_sweep_the_session_providers(tmp_path, monkeypatch):
    """A pool map over a store builds no provider set of its own: the
    parent keys and replays over the session's systems, and the workers
    inherit those."""
    from repro.bench import requests

    built = []
    real = requests._session_systems

    def counting(config):
        built.append(config)
        return real(config)

    monkeypatch.setattr(requests, "_session_systems", counting)
    config = tiny_config(
        tmp_path / "p", n_workers=2, cell_cache_dir=str(tmp_path / "cells")
    )
    pooled = BenchSession(config).request_map(MapRequest("two_predicate"))
    assert built == []
    serial = BenchSession(tiny_config(tmp_path / "s")).request_map(
        MapRequest("two_predicate")
    )
    assert np.array_equal(pooled.times, serial.times, equal_nan=True)
    assert np.array_equal(pooled.aborted, serial.aborted)
    assert np.array_equal(pooled.rows, serial.rows)
    assert pooled.meta == serial.meta


def test_cli_sweeps_on_every_core_unless_told_and_serve_stays_serial(
    tmp_path, monkeypatch
):
    """Figure and scenario runs default to ``-1``; ``--workers 0``/``1``
    stay serial; ``serve`` forks from a threaded server and keeps the
    serial default."""
    import repro.service
    from repro.bench import cli

    class Parsed(Exception):
        pass

    def session(config, progress=None):
        raise Parsed(config.n_workers)

    monkeypatch.setattr(cli, "BenchSession", session)
    for mode in (["--figures", "fig04"], ["--scenario", "join"]):
        for flags, expected in (
            ([], -1), (["--workers", "0"], 0), (["--workers", "1"], 1)
        ):
            with pytest.raises(Parsed) as parsed:
                cli.main([str(tmp_path), *mode, *flags])
            assert parsed.value.args == (expected,)
    managers = []
    monkeypatch.setattr(
        repro.service, "JobManager", lambda config, **kwargs: managers.append(config)
    )
    monkeypatch.setattr(repro.service, "serve", lambda manager, **kwargs: None)
    assert cli.main(["serve"]) == 0
    assert [config.n_workers for config in managers] == [0]


def test_cli_default_figure_run_is_the_serial_run_on_a_pool(
    tmp_path, monkeypatch, capsys
):
    """With no ``--workers`` a figure run forks a pool, and its stdout and
    artifact bytes are those of ``--workers 0``."""
    from repro.bench import cli
    from repro.core import parallel

    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_BENCH_ROWS", "4096")
    monkeypatch.setenv("REPRO_BENCH_MIN_EXP_2D", "-4")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pools: list[int] = []
    real = parallel.ProcessPoolExecutor

    def recording(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording)
    runs = {}
    for side, flags in (("default", []), ("serial", ["--workers", "0"])):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        code = cli.main(["out", "--quiet", "--figures", "fig04,fig05", *flags])
        files = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
        runs[side] = (code, capsys.readouterr().out, files)
        if side == "default":
            assert pools and set(pools) == {2}
            pools.clear()
    assert pools == []
    assert runs["default"] == runs["serial"]
    assert runs["serial"][2]
