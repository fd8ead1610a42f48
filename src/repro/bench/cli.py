"""``repro-figures``: regenerate paper figures or scenario maps.

Usage::

    repro-figures [output_dir] [--figures fig01,fig07] [--rows 65536]
                  [--workers 4] [--progress] [--refine] [--max-cells 100]
                  [--cell-cache cellstore/]
    repro-figures [output_dir] --scenario sort_spill,memory_sweep
    repro-figures [output_dir] --scenario estimation --regret
    repro-figures --cell-cache cellstore/ --cell-cache-compact
    repro-figures serve [--port 8642] [--service-workers 2] [...]

Figure mode writes SVG/PNG artifacts, prints the paper-vs-measured claim
tables, and exits non-zero if any claim fails (usable as a CI robustness
gate).  Scenario mode sweeps the named registered scenarios (see
``repro.bench.requests.available_requests``) and writes each measured
``MapData`` as ``scenario_<name>.json`` plus a text summary.  Both modes
sweep on a process pool with one worker per CPU the process may use,
bit-identical to a serial sweep; ``--workers N`` sets the count
(``0``/``1``: serial in-process);
``--progress`` streams per-cell/per-chunk/per-round status with an ETA
to stderr (structured :class:`~repro.core.progress.ProgressEvent`
objects, rendered one per line).  ``--refine`` sweeps adaptively — a
coarse grid refined where the map shows cliffs, crossovers, or censored
cells — and ``--max-cells`` caps the refinement's measurement budget per
sweep; refined maps measure the same values as dense maps on every cell
they share, and the summary reports the measured-cell coverage.
``--regret`` (with ``--scenario estimation``) additionally evaluates the
optimizer's selection policies over the measured map and writes one
categorical *choice map* and one *regret map* per policy.
``--cell-cache DIR`` enables the content-addressed per-cell measurement
store: every already-measured (plan, cell) is loaded instead of
re-measured — across reruns, grid-resolution changes and refinement
passes — with progress lines showing the running hit count
and a final store summary line.  ``--cell-cache-compact`` rewrites that
store's shards, dropping superseded and corrupt lines, and prints what
was reclaimed.

``serve`` runs the robustness-map HTTP service (submit map requests,
poll progress and partial maps, fetch results and rendered figures) on
a bounded job pool with single-flight dedup; see
:mod:`repro.service.http` for the endpoints.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from repro.bench.figures import ALL_FIGURES
from repro.bench.harness import (
    BenchConfig,
    BenchSession,
    MapRequest,
    available_requests,
)
from repro.bench.report import format_claims
from repro.core.landmarks import symmetry_score
from repro.core.progress import ProgressEvent
from repro.errors import ExperimentError
from repro.viz.colormap import ABSOLUTE_TIME_SCALE
from repro.viz.figures import choice_pictures, grid_picture, plan_choice_scale


_quiet = False


def _set_quiet(quiet: bool) -> None:
    global _quiet
    _quiet = quiet


def _status(message: str) -> None:
    """The one funnel for progress/status lines: stderr, ``--quiet`` mute.

    Result output (claim tables, scenario summaries, artifact paths)
    stays on stdout; everything that narrates the run's *progress* goes
    through here so ``--quiet`` silences it uniformly.
    """
    if not _quiet:
        print(message, file=sys.stderr, flush=True)


class _ProgressPrinter:
    """Streams sweep :class:`ProgressEvent` lines to the status stream.

    Events carry scenario, done/total, elapsed, and ETA as typed fields
    (no string sniffing); ``event.render()`` keeps the familiar
    per-cell / per-chunk line shapes and adds per-round lines under
    ``--refine``.
    """

    def __call__(self, event: ProgressEvent) -> None:
        _status(f"  {event.render()}")


def _write(path: Path, artifact: str | bytes) -> None:
    """One artifact to disk (PNG bytes, everything else text), announced."""
    if isinstance(artifact, bytes):
        path.write_bytes(artifact)
    else:
        path.write_text(artifact)
    print(f"  wrote {path}")


def _safe(name: str) -> str:
    """A plan or policy name as a file-name fragment."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _scenario_heatmaps(mapdata, name: str, out_dir: Path) -> None:
    """Fig 4/5-style SVG + PNG heat maps, one pair per plan (2-D maps)."""
    for plan_id in mapdata.plan_ids:
        for fmt in ("svg", "png"):
            _write(
                out_dir / f"scenario_{name}_{_safe(plan_id)}.{fmt}",
                grid_picture(
                    mapdata,
                    mapdata.times_for(plan_id),
                    ABSOLUTE_TIME_SCALE,
                    f"{name}: {plan_id}",
                    fmt,
                ),
            )


def _regret_artifacts(session: BenchSession, out_dir: Path) -> None:
    """Choice + regret maps per selection policy (``--regret``)."""
    choices = session.choice_maps()
    first = next(iter(choices.values()))
    # One shared scale: the same plan is the same color in every panel.
    scale = plan_choice_scale(first.plan_ids)
    magnitudes = first.axes[1].targets
    print("optimizer policies over the estimation map:")
    header = "  policy                 " + "".join(
        f"  err={m:<6.2f}" for m in magnitudes
    )
    print(header + " (worst regret per error magnitude)")
    for name, choice in choices.items():
        per_magnitude = [
            choice.worst_regret(np.s_[:, j]) for j in range(magnitudes.size)
        ]
        print(
            f"  {name:22s}" + "".join(f"  {r:8.2f}" for r in per_magnitude)
        )
        choice_svg, regret_svg, regret_png = choice_pictures(choice, name, scale)
        json_path = out_dir / f"choice_{_safe(name)}.json"
        choice.save(json_path)
        print(f"  wrote {json_path}")
        _write(json_path.with_suffix(".svg"), choice_svg)
        _write(out_dir / f"regret_{_safe(name)}.svg", regret_svg)
        _write(out_dir / f"regret_{_safe(name)}.png", regret_png)


def _run_scenarios(
    session: BenchSession,
    names: list[str],
    out_dir: Path,
    regret: bool = False,
    trace_out: Path | None = None,
) -> int:
    """Sweep each named scenario, write its MapData + heat maps, summarize."""
    try:
        names = [MapRequest(name).scenario for name in names]
    except ExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2
    if regret and "estimation" not in names:
        print(
            "--regret needs the estimation scenario "
            "(add --scenario estimation)",
            file=sys.stderr,
        )
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    traced: list = []
    for name in names:
        mapdata = session.request_map(MapRequest(name))
        if trace_out is not None:
            from repro.obs.profile import profiles_from_meta

            traced.extend(profiles_from_meta(mapdata.meta).values())
        path = out_dir / f"scenario_{name}.json"
        mapdata.save(path)
        axes = " x ".join(
            f"{axis.name}[{axis.n_points}]" for axis in mapdata.axes
        )
        # The symmetry landmark (Fig 5) only means something when both
        # axes carry the same quantity, i.e. the join scenario's square
        # input-size grid — not any map that happens to be square.
        wants_symmetry = (
            mapdata.meta.get("scenario") == "join"
            and mapdata.is_2d
            and mapdata.grid_shape[0] == mapdata.grid_shape[1]
        )
        print(f"scenario {name}: grid {axes}, {mapdata.n_plans} plans")
        measured = mapdata.meta.get("measured_cells")
        if measured is not None:
            n_cells = int(np.prod(mapdata.grid_shape))
            print(
                f"  refined: measured {len(measured)}/{n_cells} cells "
                f"({len(measured) / n_cells:.0%}) in "
                f"{mapdata.meta.get('refine_rounds', '?')} rounds; "
                "unmeasured cells interpolated"
            )
        for plan_id in mapdata.plan_ids:
            times = mapdata.times_for(plan_id)
            censored = int(np.isnan(times).sum())
            finite = times[~np.isnan(times)]
            span = (
                f"{finite.min():.4f}s .. {finite.max():.4f}s"
                if finite.size
                else "fully censored"
            )
            note = f" ({censored} censored)" if censored else ""
            if wants_symmetry:
                try:
                    # Measured cells only: an interpolated fill pattern
                    # would skew the landmark on refined maps.
                    score = symmetry_score(mapdata.measured_times(plan_id))
                    note += f" [symmetry {score:.4f}]"
                except ExperimentError:
                    # Censoring can leave no cell finite in both
                    # orientations; the sweep results still matter.
                    note += " [symmetry n/a: censored]"
            print(f"  {plan_id:28s} {span}{note}")
        print(f"  wrote {path}")
        if mapdata.is_2d:
            _scenario_heatmaps(mapdata, name, out_dir)
        if regret and name == "estimation":
            _regret_artifacts(session, out_dir)
    if trace_out is not None:
        from repro.obs.profile import write_chrome_trace

        written = write_chrome_trace(trace_out, traced)
        print(f"  wrote {written} ({len(traced)} cell profiles)")
    return 0


def _print_store_stats(session: BenchSession) -> None:
    """One summary line on how warm the run was (cell store configured)."""
    store = session.cell_store()
    if store is None:
        return
    stats = store.stats()
    lookups = stats["cell_hits"] + stats["cell_misses"]
    corrupt = stats["corrupt_lines"]
    print(
        f"cell store {store.directory}: {stats['cell_hits']}/{lookups} "
        f"cells from store ({stats['hit_rate']:.0%} hit rate), "
        f"{stats['writes']} measurements written, "
        f"{stats['entries']} entries total"
        + (f", {corrupt} corrupt lines skipped" if corrupt else "")
    )


def _compact_cell_cache(directory: str) -> int:
    """``--cell-cache-compact``: rewrite shards, report reclaimed lines."""
    from repro.core.cellstore import CellStore

    store = CellStore(directory)
    report = store.compact()
    print(
        f"cell store {store.directory}: kept {report['kept']} entries, "
        f"reclaimed {report['superseded']} superseded and "
        f"{report['corrupt']} corrupt lines"
    )
    return 0


def _split_names(text: str) -> list[str]:
    """A comma-separated flag value as its stripped, non-empty names."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _config_from_flags(**flags) -> BenchConfig:
    """The environment-default config with every given flag laid over it.

    A flag left at ``None`` keeps the config's own default.
    """
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(BenchConfig(), **given)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every sub-command lays over the environment's config."""
    parser.add_argument("--rows", type=int, default=None, help="table rows override")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per sweep (-1: every CPU this process may "
        "use; 0 or 1: serial in-process; default: -1 for figure and "
        "scenario runs, serial for serve)",
    )
    parser.add_argument(
        "--cell-cache",
        default=None,
        metavar="DIR",
        help="directory for the content-addressed per-cell measurement "
        "store: reruns, overlapping grids, refinement passes and service "
        "jobs reuse every already-measured cell (default: "
        "REPRO_BENCH_CELL_CACHE)",
    )


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the robustness-map HTTP service."""
    parser = argparse.ArgumentParser(
        prog="repro-figures serve",
        description="Serve robustness maps over HTTP (stdlib only): "
        "POST /maps submits a request, GET /jobs/<id> polls progress, "
        "/partial returns measured-so-far snapshots, /result the "
        "finished map, /render/<plan>.svg|.png the figures.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default localhost)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (default 8642; 0 picks one)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="concurrent map jobs (default 2)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="pending jobs beyond the workers before submissions get 429",
    )
    parser.add_argument(
        "--cell-budget",
        type=int,
        default=None,
        help="max cells a single request may measure (default: unlimited)",
    )
    _add_config_flags(parser)
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access log lines",
    )
    args = parser.parse_args(argv)
    from repro.service import JobManager, serve

    try:
        config = _config_from_flags(
            n_rows=args.rows,
            n_workers=args.workers,
            cell_cache_dir=args.cell_cache,
        )
        manager = JobManager(
            config,
            workers=args.service_workers,
            queue_limit=args.queue_limit,
            cell_budget=args.cell_budget,
        )
    except ExperimentError as exc:
        parser.error(str(exc))
    serve(manager, host=args.host, port=args.port, quiet=args.quiet)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="figures", help="output directory")
    parser.add_argument(
        "--figures",
        default="all",
        help="comma-separated figure ids (default: all of "
        + ",".join(ALL_FIGURES)
        + ")",
    )
    _add_config_flags(parser)
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream sweep progress with ETA to stderr",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="silence all stderr progress/status lines (results on "
        "stdout are unaffected)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="capture per-cell execution profiles while sweeping (default: "
        "REPRO_TRACE; measured maps are bit-identical either way)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="with --scenario: write the captured profiles as Chrome "
        "trace-event JSON (viewable at ui.perfetto.dev); implies --trace",
    )
    parser.add_argument(
        "--refine",
        action="store_true",
        help="sweep adaptively: refine a coarse grid where the map shows "
        "cliffs, plan crossovers, or censored cells (measured cells are "
        "bit-identical to the dense sweep's)",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="refinement cell budget per sweep (with --refine; "
        "default: refine until no box is interesting)",
    )
    parser.add_argument(
        "--cell-cache-compact",
        action="store_true",
        help="compact the per-cell store (drop superseded/corrupt lines), "
        "print what was reclaimed, and exit (needs --cell-cache or "
        "REPRO_BENCH_CELL_CACHE)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="comma-separated scenario names (runs scenario sweeps "
        "instead of figures); available: "
        + ",".join(available_requests()),
    )
    parser.add_argument(
        "--regret",
        action="store_true",
        help="with --scenario estimation: evaluate the optimizer's "
        "selection policies and write choice + regret maps per policy",
    )
    args = parser.parse_args(argv)

    _set_quiet(args.quiet)
    if args.trace_out is not None and args.scenario is None:
        parser.error("--trace-out needs --scenario (profiles ride on maps)")
    if args.max_cells is not None and not args.refine:
        parser.error("--max-cells needs --refine (it caps the refinement)")
    # An empty list would run nothing and pass, which a CI gate must not.
    if args.scenario is not None and not _split_names(args.scenario):
        parser.error("--scenario names no scenario")
    if not _split_names(args.figures):
        parser.error("--figures names no figure")
    try:
        config = _config_from_flags(
            n_rows=args.rows,
            # This process forks its pool from its one thread; serve forks
            # from a threaded server, so it keeps BenchConfig's serial
            # default.
            n_workers=-1 if args.workers is None else args.workers,
            trace=(args.trace or args.trace_out is not None) or None,
            refine=args.refine or None,
            refine_max_cells=args.max_cells,
            cell_cache_dir=args.cell_cache,
        )
    except ExperimentError as exc:
        parser.error(str(exc))
    if args.cell_cache_compact:
        if not config.cell_cache_dir:
            parser.error(
                "--cell-cache-compact needs --cell-cache DIR "
                "(or REPRO_BENCH_CELL_CACHE)"
            )
        return _compact_cell_cache(config.cell_cache_dir)
    progress = _ProgressPrinter() if args.progress else None
    session = BenchSession(config, progress=progress)
    if args.scenario is not None:
        code = _run_scenarios(
            session,
            _split_names(args.scenario),
            Path(args.output),
            regret=args.regret,
            trace_out=Path(args.trace_out) if args.trace_out else None,
        )
        _print_store_stats(session)
        return code
    if args.regret:
        parser.error("--regret requires --scenario estimation")
    wanted = list(ALL_FIGURES) if args.figures == "all" else _split_names(args.figures)
    unknown = [figure for figure in wanted if figure not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}")

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_hold = True
    for figure_id in wanted:
        result = ALL_FIGURES[figure_id](session)
        print(format_claims(result.title, result.claims))
        if result.series_text:
            print(result.series_text)
        for name, artifact in result.artifacts.items():
            _write(out_dir / name, artifact)
        print()
        all_hold = all_hold and result.all_hold
    _print_store_stats(session)
    print("ALL CLAIMS HOLD" if all_hold else "SOME CLAIMS FAILED")
    return 0 if all_hold else 1


if __name__ == "__main__":
    sys.exit(main())
