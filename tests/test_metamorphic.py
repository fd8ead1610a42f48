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


def the_map(session: BenchSession, name: str) -> dict:
    """The map a session computes, without its profiles."""
    payload = session.request_map(MapRequest(name)).to_dict()
    payload["meta"].pop(PROFILES_META_KEY, None)
    return payload


@pytest.mark.parametrize("name", available_requests())
@settings(max_examples=5, deadline=None)
@given(config=SMALL_CONFIGS)
def test_every_map_is_equal_under_serial_pool_and_warm_replay(config, name):
    """Times, aborted flags, rows, axes and meta of a map do not depend on
    how it was executed: in process, by two pool workers, or replayed from
    the cell store the first run filled — dense or refined, traced or not
    (the pool run flips the drawn ``trace``)."""
    with tempfile.TemporaryDirectory() as store:
        stored = dataclasses.replace(config, cell_cache_dir=store)
        serial = the_map(BenchSession(stored), name)
        warm = BenchSession(stored)
        assert the_map(warm, name) == serial
        assert warm.cell_store().stats()["cell_misses"] == 0
    pooled = dataclasses.replace(config, n_workers=2, trace=not config.trace)
    assert the_map(BenchSession(pooled), name) == serial
