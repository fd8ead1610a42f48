"""Metamorphic properties over random small configs (ROADMAP item 4(ii))."""

import dataclasses
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchConfig, BenchSession, MapRequest, available_requests
from repro.obs.profile import PROFILES_META_KEY

SMALL_CONFIGS = st.builds(
    BenchConfig,
    n_rows=st.integers(10, 13).map(lambda exp: 1 << exp),
    seed=st.integers(0, 2**16),
    min_exp_1d=st.integers(-5, -2),
    min_exp_2d=st.integers(-3, -1),
    pool_pages=st.sampled_from([8, 32, 256]),
    refine=st.booleans(),
    trace=st.booleans(),
    sort_rows=st.just((256, 512, 1024)),
    sort_memory=st.just((16 << 10, 64 << 10)),
    memory_axis=st.just((16 << 10, 1 << 20)),
    join_rows=st.just((128, 256, 512)),
    error_magnitudes=st.just((0.0, 1.0, 3.0)),
    cache_dir=st.none(),
    cell_cache_dir=st.none(),
)


def the_map(session: BenchSession, name: str) -> tuple[dict, list]:
    """The map a session computes, and its profiles in their order."""
    mapdata = session.request_map(MapRequest(name))
    profiles = mapdata.meta.get(PROFILES_META_KEY, {})
    return mapdata.to_dict(), list(profiles.items())


@pytest.mark.parametrize("name", available_requests())
@settings(max_examples=5, deadline=None)
@given(config=SMALL_CONFIGS)
def test_every_map_is_equal_under_serial_pool_and_warm_replay(config, name):
    """Times, aborted flags, rows, axes and meta of a map do not depend on
    how it was executed: in process, by two pool workers, or replayed from
    the cell store the first run filled — dense or refined, traced or not
    (the pool run flips the drawn ``trace``).  Traced, the profiles do not
    either, order included: the serial run's, the warm replay's and a
    traced two-worker run's are the same list."""
    with tempfile.TemporaryDirectory() as store:
        stored = dataclasses.replace(config, cell_cache_dir=store)
        serial, profiles = the_map(BenchSession(stored), name)
        warm = BenchSession(stored)
        assert the_map(warm, name) == (serial, profiles)
        assert warm.cell_store().stats()["cell_misses"] == 0
    assert bool(profiles) == config.trace
    pooled = dataclasses.replace(config, n_workers=2, trace=not config.trace)
    assert the_map(BenchSession(pooled), name)[0] == serial
    if config.trace:
        traced = dataclasses.replace(config, n_workers=2)
        assert the_map(BenchSession(traced), name) == (serial, profiles)
