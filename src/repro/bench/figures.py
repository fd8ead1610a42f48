"""Per-figure regeneration: analysis, claims, and artifacts.

One function per paper figure (1-10) plus the §3.4/§4 extension
experiments.  Each returns a :class:`FigureResult` carrying the claim
rows (paper statement vs. measured value), the rendered artifacts, and
the numeric series, so the CLI and the tests consume the same source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import BenchSession, MapRequest
from repro.bench.report import Claim, series_block
from repro.core.landmarks import (
    crossovers,
    discontinuities,
    monotonicity_violations,
    symmetry_score,
)
from repro.core.mapdata import MapAxis, MapData
from repro.core.maps import censored_to_nan, quotient_for, relative_to_best
from repro.core.metrics import profile_plan
from repro.core.optimality import optimal_counts, optimal_mask, region_stats
from repro.core.regression import compare_maps
from repro.executor.context import ExecContext
from repro.executor.sort import ExternalSort, SpillPolicy
from repro.viz.colormap import (
    ABSOLUTE_TIME_SCALE,
    RELATIVE_FACTOR_SCALE,
    DiscreteScale,
)
from repro.viz.figures import (
    absolute_curves,
    choice_pictures,
    counts_heatmap,
    grid_picture,
    plan_choice_scale,
    relative_curves,
)
from repro.viz.legend import legend_svg
from repro.viz.svg import curves_svg


@dataclass
class FigureResult:
    """Everything a figure function produces."""

    figure_id: str
    title: str
    claims: list[Claim] = field(default_factory=list)
    artifacts: dict[str, str | bytes] = field(default_factory=dict)
    series_text: str = ""

    @property
    def all_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def add_pictures(
        self,
        stem: str,
        mapdata: MapData,
        grid: np.ndarray,
        scale: DiscreteScale,
        title: str,
    ) -> None:
        """One grid of a 2-D map as the ``<stem>.svg`` / ``.png`` pair."""
        for fmt in ("svg", "png"):
            self.artifacts[f"{stem}.{fmt}"] = grid_picture(
                mapdata, grid, scale, title, fmt
            )


def first_of_each_x(xs: np.ndarray) -> np.ndarray:
    """Mask of the first point of each run of equal ``xs``.

    Cells that achieve the same row count ran the same query.  On a small
    table the smallest selectivity targets all achieve one row, so a 1-D
    figure reads its xs and curves through this mask: the landmarks need
    strictly increasing xs.
    """
    return np.concatenate(([True], xs[1:] != xs[:-1]))


# ---------------------------------------------------------------------------
# Figure 1 — single-table single-predicate selection
# ---------------------------------------------------------------------------


def figure01(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("single_predicate"))
    scan_id, trad_id, improved_id = (
        "A.table_scan",
        "A.idx_traditional",
        "A.idx_improved",
    )
    keep = first_of_each_x(mapdata.x_achieved)
    xs = mapdata.x_achieved[keep]
    scan = mapdata.times_for(scan_id)[keep]
    trad = mapdata.times_for(trad_id)[keep]
    improved = mapdata.times_for(improved_id)[keep]
    result = FigureResult("fig1", "Fig 1: single-predicate selection, 3 plans")

    # Break-even between table scan and traditional index scan.
    cross = crossovers(xs, trad, scan)
    break_even = cross[0].x if cross else float("nan")
    result.claims.append(
        Claim(
            "table scan / traditional index scan break-even exists at small selectivity",
            "~2^-11 of the rows (30K of 60M)",
            f"measured break-even at selectivity {break_even:.2e} (2^{np.log2(break_even):.1f})"
            if cross
            else "no crossover found",
            bool(cross) and break_even < 2.0**-5,
        )
    )
    # Improved scan competitive with table scan up to moderate selectivity.
    competitive = xs[np.where(improved <= scan * 1.05)[0]]
    max_competitive = float(competitive.max()) if competitive.size else float("nan")
    result.claims.append(
        Claim(
            "improved index scan competitive with table scan to moderate selectivity",
            "competitive up to ~2^-4 of the rows",
            f"improved <= 1.05x table scan up to selectivity {max_competitive:.2e} "
            f"(2^{np.log2(max_competitive):.1f})"
            if competitive.size
            else "never competitive",
            competitive.size > 0 and max_competitive >= 2.0**-8,
        )
    )
    # Full-selectivity ratio of improved scan vs table scan.
    ratio_full = improved[-1] / scan[-1]
    result.claims.append(
        Claim(
            "improved index scan ~2.5x table scan at 100% selectivity",
            "about 2.5x worse",
            f"measured {ratio_full:.2f}x",
            1.3 <= ratio_full <= 4.0,
        )
    )
    # Traditional index scan catastrophically slow / truncated at high sel.
    trad_full = trad[-1]
    censored = np.isnan(trad_full)
    trad_text = (
        "censored (over budget)" if censored else f"{trad_full / scan[-1]:.0f}x table scan"
    )
    result.claims.append(
        Claim(
            "traditional index scan worse by orders of magnitude at high selectivity",
            '"not even shown across the entire range"',
            trad_text,
            censored or trad_full / scan[-1] >= 10,
        )
    )
    trio = [scan_id, trad_id, improved_id]
    result.artifacts["fig01_selection.svg"] = absolute_curves(
        mapdata, "Figure 1: single-table single-predicate selection", trio
    )
    result.series_text = series_block(
        "Fig 1 execution times (seconds)",
        xs,
        {plan_id: list(mapdata.times_for(plan_id)[keep]) for plan_id in trio},
    )
    return result


def figure02(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("single_predicate"))
    result = FigureResult("fig2", "Fig 2: advanced selection plans (relative)")
    keep = first_of_each_x(mapdata.x_achieved)
    quotients = relative_to_best(mapdata)[:, keep]
    finite = censored_to_nan(quotients)
    optimal_plans = [
        plan_id
        for i, plan_id in enumerate(mapdata.plan_ids)
        if np.nanmin(finite[i]) <= 1.0 + 1e-9
    ]
    result.claims.append(
        Claim(
            "several plans are optimal in different selectivity bands",
            "multi-index plans added; best plan varies across the range",
            f"{len(optimal_plans)} of {mapdata.n_plans} plans optimal somewhere: "
            + ", ".join(sorted(optimal_plans)),
            len(optimal_plans) >= 3,
        )
    )
    worst_trad = np.nanmax(finite[mapdata.plan_index("A.idx_traditional")])
    censored = bool(
        np.any(np.isinf(quotients[mapdata.plan_index("A.idx_traditional")]))
    )
    result.claims.append(
        Claim(
            "relative diagram resolves wide cost ranges (traditional plan far off best)",
            "relative diagrams preferred when absolute performance varies very widely",
            "traditional index scan censored at high selectivity"
            if censored
            else f"traditional index scan up to {worst_trad:.0f}x the best plan",
            censored or worst_trad >= 30,
        )
    )
    result.artifacts["fig02_advanced_selection.svg"] = relative_curves(
        mapdata, "Figure 2: advanced selection plans (factor of best)"
    )
    result.series_text = series_block(
        "Fig 2 factor-of-best",
        mapdata.x_achieved[keep],
        {plan_id: list(finite[i]) for i, plan_id in enumerate(mapdata.plan_ids)},
    )
    return result


def figure03(_session: BenchSession) -> FigureResult:
    result = FigureResult("fig3", "Fig 3: color code for 2-D maps (absolute)")
    scale = ABSOLUTE_TIME_SCALE
    decades = all(
        abs(bucket.hi / bucket.lo - 10.0) < 1e-9 for bucket in scale.buckets
    )
    result.claims.append(
        Claim(
            "each color step spans one order of magnitude of execution time",
            "0.001-0.01s ... 100-1000s, green to red to black",
            f"{scale.n_buckets} buckets, each exactly one decade: {decades}",
            scale.n_buckets == 6 and decades,
        )
    )
    result.artifacts["fig03_color_code_absolute.svg"] = legend_svg(scale)
    return result


def figure04(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    plan_id = "A.idx_a_fetch"
    grid = mapdata.times_for(plan_id)
    result = FigureResult("fig4", "Fig 4: two-predicate single-index selection")
    # Effect sizes: how much each axis moves the cost.
    mean_over_b = np.nanmean(grid, axis=1)  # varies with selectivity(a)
    mean_over_a = np.nanmean(grid, axis=0)  # varies with selectivity(b)
    effect_a = float(mean_over_b.max() / mean_over_b.min())
    effect_b = float(mean_over_a.max() / mean_over_a.min())
    result.claims.append(
        Claim(
            "the two dimensions have very different effects",
            "one predicate (evaluated after fetching) has practically no effect",
            f"indexed-predicate effect {effect_a:.1f}x vs residual-predicate "
            f"effect {effect_b:.2f}x",
            effect_a > 3.0 and effect_b < 1.5 and effect_a > 3 * effect_b,
        )
    )
    monotone_a = not monotonicity_violations(
        mapdata.axes[0].targets, mean_over_b, rel_tol=0.02
    )
    result.claims.append(
        Claim(
            "cost grows monotonically with the indexed predicate's selectivity",
            "index scans perform as expected and as coded in the cost calculations",
            f"row-mean cost monotone along indexed axis: {monotone_a}",
            monotone_a,
        )
    )
    result.add_pictures(
        "fig04_single_index_2d",
        mapdata,
        grid,
        ABSOLUTE_TIME_SCALE,
        "Figure 4: two-predicate single-index selection",
    )
    return result


def figure05(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    result = FigureResult("fig5", "Fig 5: two-index merge join")
    # Symmetry is judged on measured cells only: on an adaptively refined
    # map the interpolation fill pattern is not symmetric even when the
    # underlying costs are (on dense maps this is times_for exactly).
    merge_sym = symmetry_score(mapdata.measured_times("A.merge_ab"))
    hash_sym = symmetry_score(mapdata.measured_times("A.hash_ab"))
    result.claims.append(
        Claim(
            "merge-join map symmetric in the two selectivities",
            "the symmetry in this diagram indicates the dimensions have similar effects",
            f"merge-join asymmetry {merge_sym:.3f} (0 = perfect symmetry)",
            merge_sym < 0.2,
        )
    )
    result.claims.append(
        Claim(
            "hash-join plans do not exhibit this symmetry",
            "hash join plans perform better in some cases but are not symmetric [GLS94]",
            f"hash-join asymmetry {hash_sym:.3f} vs merge {merge_sym:.3f}",
            hash_sym > merge_sym,
        )
    )
    result.add_pictures(
        "fig05_merge_join_2d",
        mapdata,
        mapdata.times_for("A.merge_ab"),
        ABSOLUTE_TIME_SCALE,
        "Figure 5: two-index merge join",
    )
    return result


def figure06(_session: BenchSession) -> FigureResult:
    result = FigureResult("fig6", "Fig 6: color code for relative performance")
    scale = RELATIVE_FACTOR_SCALE
    spans_five_decades = scale.buckets[-1].hi / scale.buckets[1].lo >= 1e4
    result.claims.append(
        Claim(
            "relative scale spans factor 1 to factor 100,000",
            '"it seems surprising that a range of five orders of magnitude is required"',
            f"buckets: {[bucket.label for bucket in scale.buckets]}",
            scale.n_buckets == 6 and spans_five_decades,
        )
    )
    result.artifacts["fig06_color_code_relative.svg"] = legend_svg(scale)
    return result


def figure07(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    a_plans = session.system_a_plan_ids()
    plan_id = "A.idx_a_fetch"
    quotient = quotient_for(mapdata, plan_id, a_plans)
    result = FigureResult(
        "fig7", "Fig 7: single-index scan relative to the best of 7 plans"
    )
    worst = float(np.max(quotient[np.isfinite(quotient)]))
    result.claims.append(
        Claim(
            "worst-case quotient is orders of magnitude (disruptive in production)",
            "maximal difference is a factor of 101,000 (at 60M rows)",
            f"measured worst factor {worst:,.0f}x at {mapdata.meta['n_rows_table']:,} rows "
            "(the quotient's numerator is the fetch-everything cost, so it "
            "scales linearly with table rows: 60M rows would give ~10^5)",
            worst >= 10,
        )
    )
    mask = optimal_mask(mapdata.subset(a_plans), tol_rel=0.01)[
        a_plans.index(plan_id)
    ]
    stats = region_stats(mask)
    result.claims.append(
        Claim(
            "plan optimal only in a small part of the parameter space",
            "optimal in a small, not even contiguous region",
            f"optimal on {stats.area_fraction:.0%} of cells in {stats.n_components} "
            f"component(s)",
            stats.area_fraction < 0.5,
        )
    )
    result.claims.append(
        Claim(
            "relative performance is not smooth even where absolute is",
            "the costs of best plans are not smooth",
            f"quotient surface spans {np.min(quotient[np.isfinite(quotient)]):.1f}x "
            f"to {worst:,.0f}x",
            worst / float(np.min(quotient[np.isfinite(quotient)])) > 10,
        )
    )
    result.add_pictures(
        "fig07_relative_single_index",
        mapdata,
        censored_to_nan(quotient),
        RELATIVE_FACTOR_SCALE,
        "Figure 7: single-index plan vs best of System A's 7 plans",
    )
    return result


def figure08(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    plan_id = "B.ab_bitmap"
    fig7_plan = "A.idx_a_fetch"
    quotient_b = quotient_for(mapdata, plan_id)
    quotient_a = quotient_for(mapdata, fig7_plan)
    result = FigureResult("fig8", "Fig 8: System B covering index + bitmap fetch")
    worst_b = float(np.max(quotient_b[np.isfinite(quotient_b)]))
    worst_a = float(np.max(quotient_a[np.isfinite(quotient_a)]))
    result.claims.append(
        Claim(
            "System B's worst quotient is better than the Fig 7 plan's",
            "its worst quotient is not as bad as the one of the prior plan",
            f"B worst {worst_b:,.0f}x vs Fig 7 plan worst {worst_a:,.0f}x",
            worst_b < worst_a,
        )
    )
    near_b = float(np.count_nonzero(quotient_b <= 2.0)) / quotient_b.size
    near_a = float(np.count_nonzero(quotient_a <= 2.0)) / quotient_a.size
    result.claims.append(
        Claim(
            "close to optimal over a much larger region",
            "close to optimal over a much larger region of the parameter space",
            f"within 2x of best on {near_b:.0%} of cells (Fig 7 plan: {near_a:.0%})",
            near_b > near_a,
        )
    )
    result.claims.append(
        Claim(
            "robustness might well trump performance",
            "plan is more desirable when actual parameter values are unknown at compile time",
            f"geomean factor {profile_plan(mapdata, plan_id).geomean_quotient:.2f}x",
            True,
        )
    )
    result.add_pictures(
        "fig08_system_b",
        mapdata,
        censored_to_nan(quotient_b),
        RELATIVE_FACTOR_SCALE,
        "Figure 8: System B, two-column index, bitmap-sorted fetch",
    )
    return result


def figure09(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    plan_id = "C.ab_mdam"
    quotient = quotient_for(mapdata, plan_id)
    result = FigureResult("fig9", "Fig 9: System C covering index + MDAM")
    worst = float(np.max(quotient[np.isfinite(quotient)]))
    result.claims.append(
        Claim(
            "relative performance reasonable across the entire parameter space",
            "reasonable across the entire parameter space, albeit not optimal",
            f"worst factor {worst:.1f}x over all cells",
            worst <= 30,
        )
    )
    n_best = int(np.count_nonzero(quotient <= 1.02))
    result.claims.append(
        Claim(
            "some points show this plan as the best plan (factor 1)",
            "very few data points indicate that this plan is the best",
            f"{n_best} of {quotient.size} cells at factor 1",
            n_best >= 1,
        )
    )
    quotient_b = quotient_for(mapdata, "B.ab_bitmap")
    worst_b = float(np.max(quotient_b[np.isfinite(quotient_b)]))
    result.claims.append(
        Claim(
            "MDAM plan more robust than System B's fetch-bound plan",
            "a covering two-column index is extremely robust but only if fully "
            "exploited using MDAM technology",
            f"C worst {worst:.1f}x vs B worst {worst_b:.1f}x",
            worst <= worst_b,
        )
    )
    result.add_pictures(
        "fig09_system_c_mdam",
        mapdata,
        censored_to_nan(quotient),
        RELATIVE_FACTOR_SCALE,
        "Figure 9: System C, two-column index, MDAM",
    )
    return result


def figure10(session: BenchSession) -> FigureResult:
    mapdata = session.request_map(MapRequest("two_predicate"))
    result = FigureResult("fig10", "Fig 10: optimal plans (multiplicity)")
    counts_01s = optimal_counts(mapdata, tol_abs=0.1)
    multi = float(np.count_nonzero(counts_01s >= 2)) / counts_01s.size
    result.claims.append(
        Claim(
            "most points have multiple optimal plans within 0.1s measurement error",
            "most points in the parameter space have multiple optimal plans",
            f"{multi:.0%} of cells have >= 2 plans within 0.1s of the best",
            multi > 0.5,
        )
    )
    mean_1pct = float(optimal_counts(mapdata, tol_rel=0.01).mean())
    mean_20pct = float(optimal_counts(mapdata, tol_rel=0.20).mean())
    mean_2x = float(optimal_counts(mapdata, tol_rel=1.0).mean())
    result.claims.append(
        Claim(
            "tolerance choice (1% / 20% / 2x) trades performance for robustness",
            "whether this tolerance ends at 1%, at 20%, or at a factor of 2 depends on "
            "one's tradeoff",
            f"mean optimal plans per cell: {mean_1pct:.1f} @1%, {mean_20pct:.1f} @20%, "
            f"{mean_2x:.1f} @2x",
            mean_1pct <= mean_20pct <= mean_2x,
        )
    )
    result.artifacts["fig10_optimal_plans.svg"] = counts_heatmap(
        counts_01s, mapdata, "Figure 10: optimal plans per point (tol 0.1s)"
    )
    return result


# ---------------------------------------------------------------------------
# Extensions (paper §3.4 and §4)
# ---------------------------------------------------------------------------


def ext_sort_spill(session: BenchSession) -> FigureResult:
    """§4: the sort-spill robustness map (graceful vs all-or-nothing)."""
    result = FigureResult("ext-sort", "Ext: sort spill robustness (paper §4)")
    system = session.system_a
    memory_bytes = 4 << 20
    row_bytes = 128  # wide rows: spill I/O dominates comparison CPU
    memory_rows = memory_bytes // row_bytes
    fractions = np.asarray(
        [0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0]
    )
    sizes = (fractions * memory_rows).astype(int)
    rng = np.random.default_rng(7)
    curves: dict[str, list[float]] = {"all-or-nothing": [], "graceful": []}
    for policy, label in (
        (SpillPolicy.ALL_OR_NOTHING, "all-or-nothing"),
        (SpillPolicy.GRACEFUL, "graceful"),
    ):
        for n in sizes:
            values = rng.integers(0, 1 << 30, int(n))
            system.env.cold_reset()
            ctx = ExecContext(system.env, memory_bytes=memory_bytes)
            start = system.env.clock.now
            ExternalSort(ctx, row_bytes=row_bytes, policy=policy).sort(values)
            curves[label].append(system.env.clock.now - start)
    xs = sizes.astype(float)
    naive = np.asarray(curves["all-or-nothing"])
    graceful = np.asarray(curves["graceful"])
    naive_jumps = discontinuities(xs, naive, jump_factor=1.5)
    graceful_jumps = discontinuities(xs, graceful, jump_factor=1.5)
    result.claims.append(
        Claim(
            "all-or-nothing spill shows a cost cliff at input = memory",
            "implementations spilling their entire input show discontinuous costs",
            f"{len(naive_jumps)} discontinuity(ies) >= 1.5x detected for all-or-nothing",
            len(naive_jumps) >= 1,
        )
    )
    result.claims.append(
        Claim(
            "graceful spill degrades smoothly",
            "sorts lacking graceful degradation show the cliff; graceful ones do not",
            f"{len(graceful_jumps)} discontinuity(ies) >= 1.5x for graceful; "
            f"cost at boundary: naive {naive[5]:.4f}s+{naive[6]:.4f}s vs "
            f"graceful {graceful[5]:.4f}s+{graceful[6]:.4f}s",
            len(graceful_jumps) == 0,
        )
    )
    result.artifacts["ext_sort_spill.svg"] = curves_svg(
        xs,
        {"all-or-nothing spill": naive, "graceful spill": graceful},
        title="Sort robustness map: input size vs memory (4 MiB workspace)",
        x_label="input rows",
        y_label="seconds",
    )
    result.series_text = series_block(
        "Sort spill costs (seconds)",
        xs,
        {"all-or-nothing": list(naive), "graceful": list(graceful)},
    )
    return result


def ext_join_maps(session: BenchSession) -> FigureResult:
    """Figs 4-5 join workload: merge symmetric, hash and INL joins not."""
    result = FigureResult(
        "ext-join", "Ext: join robustness maps (Figs 4-5 workload)"
    )
    mapdata = session.request_map(MapRequest("join"))
    hash_grid = mapdata.times_for("join.hash.graceful")
    # Symmetry on measured cells only: interpolated fills would skew the
    # landmark on refined maps (identical to the full grids on dense maps).
    merge_sym = symmetry_score(mapdata.measured_times("join.merge"))
    hash_sym = symmetry_score(mapdata.measured_times("join.hash.graceful"))
    result.claims.append(
        Claim(
            "merge-join map symmetric in the two input sizes",
            "the symmetry in this diagram indicates the dimensions have similar effects",
            f"merge-join asymmetry {merge_sym:.4f} (0 = perfect symmetry)",
            merge_sym < 0.02,
        )
    )
    result.claims.append(
        Claim(
            "hash-join map is not symmetric",
            "hash join plans perform better in some cases but are not symmetric [GLS94]",
            f"hash-join asymmetry {hash_sym:.3f} vs merge {merge_sym:.4f}",
            hash_sym > max(0.02, merge_sym),
        )
    )
    # Build-side spill cliff: fix the probe size at its maximum and walk
    # the build axis past the workspace boundary.
    build_targets = mapdata.axis("build_rows").targets
    aon_slice = mapdata.times_for("join.hash.all-or-nothing")[:, -1]
    graceful_slice = hash_grid[:, -1]
    aon_jumps = discontinuities(build_targets, aon_slice, jump_factor=1.5)
    with np.errstate(invalid="ignore"):
        worst_aon = float(np.nanmax(aon_slice[1:] / aon_slice[:-1]))
        worst_graceful = float(np.nanmax(graceful_slice[1:] / graceful_slice[:-1]))
    result.claims.append(
        Claim(
            "all-or-nothing hash spill shows a cost cliff along the build axis",
            "implementations spilling their entire input show discontinuous costs",
            f"{len(aon_jumps)} discontinuity(ies) >= 1.5x; worst adjacent jump "
            f"{worst_aon:.2f}x vs graceful {worst_graceful:.2f}x",
            len(aon_jumps) >= 1 and worst_aon > worst_graceful,
        )
    )
    # Index nested-loop joins treat their two inputs completely
    # differently (an index descent per probe row vs faulting the index
    # in cold), so like the hash join their map breaks the symmetry.
    inl_sym = symmetry_score(mapdata.measured_times("join.inl"))
    result.claims.append(
        Claim(
            "index nested-loop join map is asymmetric too",
            "hash join plans [and other asymmetric joins] are not symmetric",
            f"index nested-loop asymmetry {inl_sym:.3f} vs merge {merge_sym:.4f}",
            inl_sym > max(0.02, merge_sym),
        )
    )
    result.add_pictures(
        "ext_join_merge_2d",
        mapdata,
        mapdata.times_for("join.merge"),
        ABSOLUTE_TIME_SCALE,
        "Join map: merge join (absolute)",
    )
    result.add_pictures(
        "ext_join_hash_2d",
        mapdata,
        hash_grid,
        ABSOLUTE_TIME_SCALE,
        "Join map: hash join (absolute)",
    )
    result.add_pictures(
        "ext_join_hash_relative_2d",
        mapdata,
        censored_to_nan(quotient_for(mapdata, "join.hash.graceful")),
        RELATIVE_FACTOR_SCALE,
        "Join map: hash join vs best join plan",
    )
    return result


def ext_optimality_regions(session: BenchSession) -> FigureResult:
    """§3.4: region-of-optimality statistics and plan elimination."""
    result = FigureResult(
        "ext-regions", "Ext: regions of optimality & plan elimination (§3.4)"
    )
    mapdata = session.request_map(MapRequest("two_predicate"))
    mask = optimal_mask(mapdata, tol_rel=0.2)
    lines = ["plan                          cells  comps  largest  bbox-fill"]
    best_cover = ("", 0.0)
    for i, plan_id in enumerate(mapdata.plan_ids):
        stats = region_stats(mask[i])
        lines.append(
            f"{plan_id:28s} {stats.n_cells:6d} {stats.n_components:6d} "
            f"{stats.largest_component:8d} {stats.bbox_fill:10.2f}"
        )
        if stats.area_fraction > best_cover[1]:
            best_cover = (plan_id, stats.area_fraction)
    result.series_text = "\n".join(lines)
    result.claims.append(
        Claim(
            "one plan has a dominant region of acceptable performance",
            "focus on the plan with the broadest region of acceptable performance",
            f"{best_cover[0]} within 20% of best on {best_cover[1]:.0%} of cells",
            best_cover[1] >= 0.3,
        )
    )
    # Greedy plan elimination: how few plans cover every cell within 2x?
    # (Every cell has a best plan, at quotient 1, so each round gains.)
    quotients = relative_to_best(mapdata)
    acceptable = quotients <= 2.0
    chosen: list[str] = []
    covered = np.zeros(mapdata.grid_shape, dtype=bool)
    while not covered.all() and len(chosen) < mapdata.n_plans:
        gains = [
            int(np.count_nonzero(acceptable[i] & ~covered))
            for i in range(mapdata.n_plans)
        ]
        best_i = int(np.argmax(gains))
        chosen.append(mapdata.plan_ids[best_i])
        covered |= acceptable[best_i]
    result.claims.append(
        Claim(
            "a small plan set covers the whole space within 2x (plan elimination)",
            "every plan eliminated from this map implies query optimization need not "
            "consider it",
            f"{len(chosen)} plan(s) suffice: {chosen} (covering {covered.mean():.0%})",
            covered.all() and len(chosen) <= 4,
        )
    )
    return result


def ext_regression_guard(session: BenchSession) -> FigureResult:
    """§1/§4: map-based regression testing of a lost fetch optimization.

    "Before" is the improved index scan of the ``single_predicate`` map;
    "after" is the traditional (naive-fetch) scan on the same cells,
    filed under the improved scan's plan id — the improvement silently
    lost.  The guard covers the cells at selectivity 2^-10 and above; on
    a grid that starts higher it covers what the map covers.  On a
    refined session it reads the densified view, as every figure does:
    a cell the refinement skipped repeats its nearest measured cell for
    both scans, so the measured cells alone decide the claims and a
    regression confined to skipped cells would go unseen (at the default
    config both claims and the exit code come out as on the dense map).
    """
    result = FigureResult(
        "ext-regression", "Ext: robustness-map regression guard (§1, §4)"
    )
    mapdata = session.request_map(MapRequest("single_predicate"))
    cells = (mapdata.x_targets >= 2.0**-10) & first_of_each_x(mapdata.x_achieved)
    achieved = mapdata.x_achieved[cells]
    n_cells = achieved.size

    def as_map(plan_id: str) -> MapData:
        plan = mapdata.plan_index(plan_id)
        return MapData(
            plan_ids=["A.idx_improved"],
            times=mapdata.times[plan][cells][None, :],
            aborted=mapdata.aborted[plan][cells][None, :],
            rows=np.zeros(n_cells, dtype=np.int64),
            axes=[MapAxis("selectivity", mapdata.x_targets[cells], achieved)],
        )

    before = as_map("A.idx_improved")
    after = as_map("A.idx_traditional")
    report = compare_maps(before, after, threshold=1.5)
    result.claims.append(
        Claim(
            "losing the improved fetch strategy is caught by the map diff",
            "regression testing protects progress against accidental regression",
            report.summary(),
            not report.passed,
        )
    )
    regressed_cells = {finding.cell[0] for finding in report.findings}
    high_sel_cells = set(range(n_cells - 4, n_cells))
    result.claims.append(
        Claim(
            "the regression bites at high selectivities (dense fetches)",
            "the improved scan's advantage is high bandwidth for moderate results",
            f"regressed cells (indices): {sorted(regressed_cells)}",
            bool(regressed_cells & high_sel_cells),
        )
    )
    result.series_text = series_block(
        "Regression guard (seconds)",
        achieved,
        {
            "before (improved fetch)": list(before.times[0]),
            "after (naive fetch)": list(after.times[0]),
        },
    )
    return result


def ext_optimizer_regret(session: BenchSession) -> FigureResult:
    """Optimizer payoff analysis: choice maps and regret under q-error.

    The compile-time optimizer (System A's cost model) picks a plan per
    cell from estimates perturbed by a deterministic q-error whose
    magnitude is the map's second axis.  The classic policy trusts the
    point estimate; the robust policies hedge over an uncertainty box.
    """
    result = FigureResult(
        "ext-optimizer", "Ext: plan-choice and regret maps under estimation error"
    )
    choices = session.choice_maps()
    classic = choices["min-estimated-cost"]
    robust = choices["min-worst-regret"]
    penalty = choices["penalty-aware"]
    magnitudes = classic.axes[1].targets
    # Claims compare the smallest vs the largest magnitude, wherever a
    # config put them on the axis.
    at_zero = np.s_[:, int(np.argmin(magnitudes))]
    at_max = np.s_[:, int(np.argmax(magnitudes))]

    classic_worst_zero = classic.worst_regret(at_zero)
    classic_worst_max = classic.worst_regret(at_max)
    result.claims.append(
        Claim(
            "classic policy's worst-case regret grows with error magnitude",
            "actual run-time conditions very often differ from compile-time estimates",
            f"worst regret {classic_worst_zero:.2f}x at error 0 vs "
            f"{classic_worst_max:.2f}x at error {magnitudes.max():g}",
            classic_worst_max > classic_worst_zero * 1.2,
        )
    )
    robust_ok = True
    details = []
    for choice in (robust, penalty):
        worst_max = choice.worst_regret(at_max)
        mean_max = choice.mean_regret(at_max)
        details.append(
            f"{choice.policy}: worst {worst_max:.2f}x "
            f"(classic {classic_worst_max:.2f}x), mean {mean_max:.2f}x"
        )
        robust_ok = robust_ok and worst_max <= classic_worst_max and (
            mean_max <= 1.25 * classic.mean_regret(at_zero)
        )
    result.claims.append(
        Claim(
            "robust policies cap worst-case regret at a bounded premium",
            "penalty-aware selection trades a small expected premium for a "
            "cap on worst-case regret (PARQO)",
            "; ".join(details),
            robust_ok,
        )
    )
    shifted = int(
        np.count_nonzero(classic.choices[at_zero] != classic.choices[at_max])
    )
    result.claims.append(
        Claim(
            "choice-map region boundaries shift as error grows",
            "the chosen plan diverges from the measured-best plan as "
            "estimates degrade",
            f"{shifted} of {classic.choices[at_zero].size} selectivity cells "
            f"choose a different plan at error {magnitudes.max():g} "
            f"than at {magnitudes.min():g}",
            shifted >= 1,
        )
    )

    scale = plan_choice_scale(classic.plan_ids)
    classic_choice, classic_regret, classic_png = choice_pictures(
        classic, "classic (min estimated cost)", scale
    )
    robust_choice, robust_regret, _ = choice_pictures(
        robust, "robust (min worst regret)", scale
    )
    result.artifacts.update(
        {
            "ext_optimizer_choice_classic.svg": classic_choice,
            "ext_optimizer_choice_robust.svg": robust_choice,
            "ext_optimizer_regret_classic.svg": classic_regret,
            "ext_optimizer_regret_robust.svg": robust_regret,
            "ext_optimizer_choice_legend.svg": legend_svg(scale),
            "ext_optimizer_regret_classic.png": classic_png,
        }
    )
    lines = ["policy                    " + "".join(
        f"  err={m:<7.2g}" for m in magnitudes
    )]
    for choice in (classic, robust, penalty):
        per = [
            choice.worst_regret(np.s_[:, j]) for j in range(magnitudes.size)
        ]
        lines.append(
            f"{choice.policy:26s}" + "".join(f"  {r:10.3f}" for r in per)
        )
    result.series_text = "\n".join(lines)
    return result


#: All figure generators keyed by their bench id.
ALL_FIGURES = {
    "fig01": figure01,
    "fig02": figure02,
    "fig03": figure03,
    "fig04": figure04,
    "fig05": figure05,
    "fig06": figure06,
    "fig07": figure07,
    "fig08": figure08,
    "fig09": figure09,
    "fig10": figure10,
    "ext_sort_spill": ext_sort_spill,
    "ext_join_maps": ext_join_maps,
    "ext_optimality_regions": ext_optimality_regions,
    "ext_regression_guard": ext_regression_guard,
    "ext_optimizer_regret": ext_optimizer_regret,
}
