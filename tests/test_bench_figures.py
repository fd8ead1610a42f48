"""Integration tests: every figure function runs end-to-end at tiny scale.

Scale-dependent claims (absolute worst-case factors) are allowed to miss
at this scale; structural claims must hold.  The blocking end-to-end run
(``benchmarks/e2e/run.py``) asserts the full claim set at default scale.
"""

import numpy as np
import pytest

import repro.bench.figures as figures
from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import BenchConfig, BenchSession, MapRequest
from repro.bench.report import Claim, format_claims, series_block
from repro.executor.plans import PlanRunner


@pytest.fixture(scope="module")
def session():
    return BenchSession(
        BenchConfig(n_rows=4096, min_exp_1d=-8, min_exp_2d=-5, cache_dir=None)
    )


#: Claims whose thresholds only hold at bench scale (>= 2^16 rows).
SCALE_DEPENDENT = {
    "worst-case quotient is orders of magnitude (disruptive in production)",
    "table scan / traditional index scan break-even exists at small selectivity",
    "several plans are optimal in different selectivity bands",
    "relative diagram resolves wide cost ranges (traditional plan far off best)",
    "improved index scan competitive with table scan to moderate selectivity",
    "traditional index scan worse by orders of magnitude at high selectivity",
    "relative performance is not smooth even where absolute is",
    "improved index scan ~2.5x table scan at 100% selectivity",
    "System B's worst quotient is better than the Fig 7 plan's",
    "close to optimal over a much larger region",
    "the two dimensions have very different effects",
    "hash-join plans do not exhibit this symmetry",
    # Tiny tables compress the regret range: every plan is within ~2x of
    # best, so policy differences (and their growth with error) vanish.
    "classic policy's worst-case regret grows with error magnitude",
    "robust policies cap worst-case regret at a bounded premium",
    "choice-map region boundaries shift as error grows",
}


@pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
def test_figure_runs_and_structural_claims_hold(session, figure_id):
    result = ALL_FIGURES[figure_id](session)
    assert result.claims, figure_id
    for claim in result.claims:
        if claim.claim in SCALE_DEPENDENT:
            continue
        assert claim.holds, f"{figure_id}: {claim.claim}: {claim.measured}"
    for name, artifact in result.artifacts.items():
        assert len(artifact) > 100, name
        if name.endswith(".svg"):
            assert artifact.lstrip().startswith("<svg")
        if name.endswith(".png"):
            assert artifact[:8] == b"\x89PNG\r\n\x1a\n"


@pytest.fixture(scope="module")
def refined_session():
    return BenchSession(
        BenchConfig(
            n_rows=4096,
            min_exp_1d=-8,
            min_exp_2d=-5,
            cache_dir=None,
            refine=True,
        )
    )


@pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
def test_figure_claims_hold_on_refined_maps(refined_session, figure_id):
    """Every figure must survive densify()-ed adaptively refined maps."""
    result = ALL_FIGURES[figure_id](refined_session)
    assert result.claims, figure_id
    for claim in result.claims:
        if claim.claim in SCALE_DEPENDENT:
            continue
        assert claim.holds, f"{figure_id}: {claim.claim}: {claim.measured}"


def test_figures_cover_the_whole_paper():
    for n in range(1, 11):
        assert f"fig{n:02d}" in ALL_FIGURES


def test_session_caches_sweeps(session):
    first = session.request_map(MapRequest("two_predicate"))
    second = session.request_map(MapRequest("two_predicate"))
    assert first is second


def test_disk_cache_roundtrip(tmp_path):
    config = BenchConfig(
        n_rows=2048, min_exp_1d=-4, min_exp_2d=-3, cache_dir=str(tmp_path)
    )
    s1 = BenchSession(config)
    m1 = s1.request_map(MapRequest("single_predicate"))
    s2 = BenchSession(config)
    m2 = s2.request_map(MapRequest("single_predicate"))
    assert m2.plan_ids == m1.plan_ids
    assert np.allclose(m2.times, m1.times, equal_nan=True)
    assert list(tmp_path.glob("*.json"))


def test_regression_guard_reads_the_single_predicate_map(session, monkeypatch):
    """The guard's curves are cells of a map the session already holds."""
    mapdata = session.request_map(MapRequest("single_predicate"))
    measured = []
    real_measure = PlanRunner.measure

    def counting_measure(self, plan):
        measured.append(plan.label)
        return real_measure(self, plan)

    compared = []
    real_compare = figures.compare_maps

    def spying_compare(before, after, **kwargs):
        compared.append((before, after))
        return real_compare(before, after, **kwargs)

    monkeypatch.setattr(PlanRunner, "measure", counting_measure)
    monkeypatch.setattr(figures, "compare_maps", spying_compare)
    result = figures.ext_regression_guard(session)
    assert measured == []
    ((before, after),) = compared
    # This grid starts at 2^-8, above the guard's 2^-10: every cell.
    cells = mapdata.x_targets >= 2.0**-10
    assert cells.all() and before.grid_shape == mapdata.grid_shape
    for guard_map, plan_id in (
        (before, "A.idx_improved"),
        (after, "A.idx_traditional"),
    ):
        plan = mapdata.plan_index(plan_id)
        assert guard_map.plan_ids == ["A.idx_improved"]
        assert [t.hex() for t in guard_map.times[0].tolist()] == [
            t.hex() for t in mapdata.times[plan][cells].tolist()
        ]
        assert np.array_equal(guard_map.aborted[0], mapdata.aborted[plan][cells])
        assert np.array_equal(guard_map.x_achieved, mapdata.x_achieved[cells])
    assert result.all_hold


def test_system_a_plan_ids(session):
    ids = session.system_a_plan_ids()
    assert len(ids) == 7
    assert all(plan_id.startswith("A.") for plan_id in ids)


def test_budget_positive(session):
    assert session.budget() > 0


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def _claim(holds=True):
    return Claim("something holds", "paper says", "we measured", holds)


def test_format_claims():
    text = format_claims("Title", [_claim(), _claim(False)])
    assert "[OK ]" in text and "[MISS]" in text
    assert "1/2 claims hold" in text


def test_series_block_formats_nan():
    text = series_block("t", [0.5, 1.0], {"p": [1.0, float("nan")]})
    assert "nan" in text
    assert "1.0000" in text
