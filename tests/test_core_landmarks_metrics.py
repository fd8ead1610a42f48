"""Tests for landmark detectors, metrics, and regression comparison."""

import numpy as np
import pytest

from repro.core.landmarks import (
    crossovers,
    discontinuities,
    monotonicity_violations,
    symmetry_score,
)
from repro.core.mapdata import MapAxis, MapData
from repro.core.metrics import profile_plan, summarize_plans
from repro.core.regression import compare_maps
from repro.errors import ExperimentError
from tests.conftest import flattening_violations


XS = np.array([1.0, 2.0, 4.0, 8.0, 16.0])


def test_monotonic_curve_clean():
    assert monotonicity_violations(XS, np.array([1, 2, 3, 4, 5.0])) == []


def test_monotonicity_violation_detected():
    landmarks = monotonicity_violations(XS, np.array([1, 2, 1.5, 4, 5.0]))
    assert len(landmarks) == 1
    assert landmarks[0].kind == "monotonicity"
    assert landmarks[0].index == 2


def test_monotonicity_tolerates_noise():
    assert monotonicity_violations(XS, np.array([1, 2, 1.99, 4, 5.0])) == []


def test_monotonicity_skips_nan():
    assert monotonicity_violations(XS, np.array([1, np.nan, 0.5, 4, 5.0])) == []


def test_flattening_clean_for_concave():
    # Slopes decrease: 1, 0.5, 0.25, 0.125 per unit.
    ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert flattening_violations(XS, ys) == []


def test_flattening_violation_detected():
    # Flat then steep: the Fig 1 improved-scan signature.
    ys = np.array([1.0, 1.1, 1.2, 4.0, 20.0])
    landmarks = flattening_violations(XS, ys)
    assert landmarks
    assert landmarks[0].kind == "flattening"


def test_flattening_dip_then_spike_detected():
    """A marginal cost that goes negative then jumps must be reported.

    The old ``slopes[i-1] <= 0: continue`` guard skipped these curves
    entirely: the dip was the monotonicity detector's finding, but the
    rebound (a derivative increase) went unreported.
    """
    ys = np.array([5.0, 1.0, 10.0, 11.0, 12.0])
    landmarks = flattening_violations(XS, ys)
    assert landmarks
    assert landmarks[0].kind == "flattening"
    assert "flipped sign" in landmarks[0].detail


def test_flattening_plateau_staircase_stays_clean():
    """Page-quantized staircases (plateau then step) are healthy curves."""
    ys = np.array([1.0, 1.0, 1.2, 1.2, 1.4])
    assert flattening_violations(XS, ys) == []


def test_flattening_dip_with_negligible_rebound_stays_clean():
    ys = np.array([5.0, 4.0, 4.001, 4.002, 4.003])
    assert flattening_violations(XS, ys) == []


def test_flattening_still_clean_for_monotone_decreasing():
    ys = np.array([10.0, 8.0, 6.0, 4.0, 2.0])
    assert flattening_violations(XS, ys) == []


def test_discontinuity_detected():
    ys = np.array([1.0, 1.1, 5.0, 5.2, 5.4])
    landmarks = discontinuities(XS, ys, jump_factor=3.0)
    assert len(landmarks) == 1
    assert landmarks[0].index == 2


def test_discontinuity_skips_censored_and_free_points():
    """A NaN has no ratio and a zero cannot be divided by: neither step
    is a cliff, and neither hides the real one after it."""
    ys = np.array([np.nan, 0.0, 1.0, 1.1, 5.0])
    assert [mark.index for mark in discontinuities(XS, ys)] == [4]


def test_discontinuity_validates_factor():
    with pytest.raises(ExperimentError):
        discontinuities(XS, np.ones(5), jump_factor=1.0)


def test_crossover_found_and_interpolated():
    ya = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    yb = np.array([5.0, 5.0, 5.0, 5.0, 5.0])
    landmarks = crossovers(XS, ya, yb)
    assert len(landmarks) == 1
    assert 2.0 < landmarks[0].x < 8.0


def test_no_crossover():
    assert crossovers(XS, np.ones(5), np.ones(5) * 2) == []


def test_crossover_ignores_nan_segments():
    ya = np.array([1.0, np.nan, 4.0, 8.0, 16.0])
    yb = np.full(5, 5.0)
    landmarks = crossovers(XS, ya, yb)
    assert len(landmarks) == 1  # only the 8 vs 5 swap is detectable


def test_curve_validation():
    with pytest.raises(ExperimentError):
        monotonicity_violations(np.array([1.0, 1.0]), np.array([1.0, 2.0]))


def test_symmetry_score_symmetric():
    grid = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert symmetry_score(grid) == 0.0


def test_symmetry_score_asymmetric():
    grid = np.array([[1.0, 10.0], [2.0, 1.0]])
    assert symmetry_score(grid) > 0.5


def test_symmetry_score_of_an_all_zero_map_is_zero():
    assert symmetry_score(np.zeros((2, 2))) == 0.0


def test_symmetry_needs_square():
    with pytest.raises(ExperimentError):
        symmetry_score(np.ones((2, 3)))


def test_landmark_str():
    landmarks = discontinuities(XS, np.array([1.0, 1.1, 5.0, 5.2, 5.4]))
    assert "discontinuity" in str(landmarks[0])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def flat_map(times):
    times = np.asarray(times, dtype=float)
    return MapData(
        plan_ids=[f"p{i}" for i in range(times.shape[0])],
        times=times,
        aborted=np.isnan(times),
        rows=np.zeros(times.shape[1], dtype=int),
        axes=[MapAxis("x", np.arange(1.0, times.shape[1] + 1))],
    )


def test_profile_plan_basics():
    mapdata = flat_map([[1.0, 1.0, 10.0], [1.0, 2.0, 1.0]])
    profile = profile_plan(mapdata, "p0")
    assert profile.worst_quotient == pytest.approx(10.0)
    assert profile.within_factor[2.0] == pytest.approx(2 / 3)
    assert profile.censored_cells == 0
    assert "p0" in profile.describe()


def test_profile_plan_censored():
    mapdata = flat_map([[1.0, np.nan], [1.0, 2.0]])
    profile = profile_plan(mapdata, "p0")
    assert profile.worst_quotient == float("inf")
    assert profile.censored_cells == 1


def test_summarize_sorted_by_robustness():
    mapdata = flat_map([[1.0, 100.0], [2.0, 2.0]])
    profiles = summarize_plans(mapdata)
    assert profiles[0].plan_id == "p1"


def test_profile_plan_optimal_fraction_respects_baseline():
    """The optimality mask must use the same baseline as the quotients.

    p0 is best-of-{p0, p1} everywhere, but a plan outside that subset
    (p2) is cheaper at the first cell: profiled on the subset map, p0 is
    optimal everywhere; on the whole map, at half the cells.
    """
    mapdata = flat_map([[1.0, 1.0], [2.0, 2.0], [0.5, 4.0]])
    restricted = profile_plan(mapdata.subset(["p0", "p1"]), "p0")
    assert restricted.optimal_fraction == pytest.approx(1.0)
    assert restricted.worst_quotient == pytest.approx(1.0)
    unrestricted = profile_plan(mapdata, "p0")
    assert unrestricted.optimal_fraction == pytest.approx(0.5)
    assert unrestricted.worst_quotient == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


def test_compare_maps_pass():
    before = flat_map([[1.0, 2.0]])
    after = flat_map([[1.1, 2.1]])
    report = compare_maps(before, after, threshold=1.5)
    assert report.passed
    assert report.worst_factor == 1.0
    assert "PASS" in report.summary()


def test_compare_maps_censored_cells():
    """Censored both times is no finding; censored before and measured
    now is an improvement by an unbounded factor."""
    before = flat_map([[np.nan, np.nan, 1.0]])
    after = flat_map([[np.nan, 2.0, 1.0]])
    report = compare_maps(before, after, threshold=1.5)
    assert report.passed
    (finding,) = report.improvements
    assert (finding.cell, finding.before_seconds, finding.after_seconds) == (
        (1,), np.inf, 2.0
    )


def test_compare_maps_detects_regression():
    before = flat_map([[1.0, 2.0]])
    after = flat_map([[1.0, 5.0]])
    report = compare_maps(before, after, threshold=1.5)
    assert not report.passed
    assert report.worst_factor == pytest.approx(2.5)
    assert report.findings[0].cell == (1,)
    assert "FAIL" in report.summary()
    assert "2.50x" in str(report.findings[0])


def test_compare_maps_newly_censored_is_regression():
    before = flat_map([[1.0, 2.0]])
    after = flat_map([[1.0, np.nan]])
    report = compare_maps(before, after)
    assert not report.passed
    assert report.worst_factor == float("inf")


def test_compare_maps_improvement_tracked():
    before = flat_map([[5.0]])
    after = flat_map([[1.0]])
    report = compare_maps(before, after, threshold=1.5)
    assert report.passed
    assert len(report.improvements) == 1


def test_compare_maps_flags_free_before_costly_after():
    """A cell that cost nothing before and 100s after is a regression.

    The old ``b > 0 and a / b > threshold`` guard silently skipped every
    ``before == 0`` cell, so such plans passed regression testing.
    """
    before = flat_map([[0.0, 1.0]])
    after = flat_map([[100.0, 1.0]])
    report = compare_maps(before, after, threshold=1.5)
    assert not report.passed
    assert report.findings[0].cell == (0,)
    assert report.findings[0].factor == float("inf")
    assert report.worst_factor == float("inf")
    assert "inf" in str(report.findings[0])


def test_compare_maps_zero_to_zero_is_clean():
    before = flat_map([[0.0, 1.0]])
    after = flat_map([[0.0, 1.0]])
    assert compare_maps(before, after, threshold=1.5).passed


def test_compare_maps_costly_to_free_is_improvement():
    before = flat_map([[3.0, 1.0]])
    after = flat_map([[0.0, 1.0]])
    report = compare_maps(before, after, threshold=1.5)
    assert report.passed
    assert len(report.improvements) == 1


def test_compare_maps_validates_inputs():
    before = flat_map([[1.0, 2.0]])
    wrong_plans = MapData(
        plan_ids=["other"],
        times=np.array([[1.0, 2.0]]),
        aborted=np.zeros((1, 2), dtype=bool),
        rows=np.zeros(2, dtype=int),
        axes=[MapAxis("x", np.array([1.0, 2.0]))],
    )
    with pytest.raises(ExperimentError):
        compare_maps(before, wrong_plans)
    with pytest.raises(ExperimentError):
        compare_maps(before, before, threshold=0.9)
