"""Which definitions under ``src/repro`` does no front door reach, and
which of their options does no front door ever turn?

Writes a ``sitecustomize.py`` into a temporary directory that installs
``sys.setprofile`` / ``threading.setprofile`` and appends every code
object under ``src/repro`` to a per-process file the first time it is
called — and every parameter of it whose default is a literal or a
module constant (read from the AST) the first time a call binds it to
anything else — puts that directory on ``PYTHONPATH``, and runs each
command of
:data:`FRONT_DOORS` — the CLI's figure and scenario modes, the HTTP
service with every route and error route hit (:func:`drive_service`),
the end-to-end benchmark and the examples — in a scratch directory.
Pool workers and the service's sweep processes inherit the hook through
the environment.  (``benchmarks/e2e/run.py`` gives its CLI children a
``PYTHONPATH`` of its own, so those are not hooked; they run the command
the first entries run directly, and the ``--trace 1`` run replays it in
the hooked process.)  With ``--tests`` the tier-1 suite runs the same
way, into a second record.

Every ``def`` under ``src/repro`` is then one of: reached by a front
door; reached by tests only; reached by nothing (abstract methods,
``__repr__``s, and what should be looked at).  The report lists the last
two per file with their line counts (a definition's lines minus the
definitions nested in it), then the parameters that were never given
another value — each one a constant, a test seam, a config knob carried
at its default, or a configuration with no door — and prints totals.
Nothing under ``src/`` is changed or imported.  Takes about five
minutes, plus the suite under the profiler with ``--tests``; not a CI
step.  A command that exits with
a code it should not has the tail of its output printed; the scratch
directory is deleted either way.

Usage::

    python tools/reachability_census.py [--tests]
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

HOOK = '''\
import os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
#: (file, first line) -> {{parameter: source of its default}}
_DEFAULTS = {defaults!r}
#: code -> {{parameter: default}} for the parameters no call has set yet
_pending = {{}}
_files = {{}}


def _write(*fields):
    pid = os.getpid()  # a forked worker writes its own file
    handle = _files.get(pid)
    if handle is None:
        path = os.path.join(_OUT, str(pid) + ".txt")
        handle = _files[pid] = open(path, "a", buffering=1)
    handle.write("\\t".join(fields) + "\\n")


def _same(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    pending = _pending.get(code, _pending)
    if pending is _pending:  # first call of this code object
        pending = _pending[code] = {{}}
        if not code.co_filename.startswith(_ROOT):
            return
        _write(code.co_filename, str(code.co_firstlineno), code.co_name)
        sources = _DEFAULTS.get((code.co_filename, code.co_firstlineno), {{}})
        for name, source in sources.items():
            pending[name] = eval(source, frame.f_globals)
    if not pending:
        return
    bound = frame.f_locals
    for name, default in list(pending.items()):  # other threads pop too
        if name in bound and not _same(bound[name], default):
            if pending.pop(name, _pending) is not _pending:
                _write(code.co_filename, str(code.co_firstlineno), code.co_name, name)


threading.setprofile(_profile)
sys.setprofile(_profile)
'''

PYTHON = sys.executable
CLI = [PYTHON, "-m", "repro.bench.cli"]
ALL_SCENARIOS = (
    "single_predicate,two_predicate,two_predicate_nojitter,"
    "sort_spill,memory_sweep,join,estimation"
)
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))

class Door(NamedTuple):
    """One front-door command; relative paths land in the scratch directory."""

    argv: list[str]
    env: dict[str, str] = {}
    #: Exit codes that are fine (a refused name exits 2).
    fine: tuple[int, ...] = (0,)
    #: For a server: the function here that drives it before it is
    #: interrupted; ``{port}`` in ``argv`` is a free local port.
    client: str | None = None


E2E = [PYTHON, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--workload", "all"]

FRONT_DOORS = [
    # figure mode at the default 2^17 rows: cold, warm, with progress, refined
    Door(CLI + ["figs", "--quiet", "--cell-cache", "cells"]),
    Door(CLI + ["figs", "--quiet", "--cell-cache", "cells"]),
    Door(CLI + ["figs_progress", "--figures", "fig01,ext_sort_spill", "--progress"]),
    Door(CLI + ["figs_refine", "--figures", "fig01, fig03", "--refine", "--quiet"]),
    Door(CLI + ["figs_unknown", "--figures", "fig99"], fine=(2,)),
    # scenario mode
    Door(CLI + ["scen", "--scenario", ALL_SCENARIOS, "--regret", "--quiet"]),
    Door(CLI + ["scen_refine", "--scenario", "join,two_predicate", "--refine",
                "--max-cells", "40", "--progress", "--workers", "2"]),
    Door(CLI + ["scen_trace", "--scenario", "join,sort_spill", "--workers", "2",
                "--trace-out", "scen_trace/trace.json", "--quiet"]),
    Door(CLI + ["scen_unknown", "--scenario", "no_such_map"], fine=(2,)),
    # a pool sweep over a cold store, then over the warm one (parent-side replay)
    Door(CLI + ["scen_pool", "--scenario", "join,sort_spill", "--workers", "2",
                "--cell-cache", "pool_cells", "--quiet"]),
    Door(CLI + ["scen_pool", "--scenario", "join,sort_spill", "--workers", "2",
                "--cell-cache", "pool_cells", "--quiet"]),
    # the whole-map cache, cold then warm; the cell store's housekeeping
    Door(CLI + ["mapcache", "--figures", "fig01,fig02"], {"REPRO_BENCH_CACHE": "maps"}),
    Door(CLI + ["mapcache", "--figures", "fig01,fig02"], {"REPRO_BENCH_CACHE": "maps"}),
    Door(CLI + ["--cell-cache", "cells", "--cell-cache-compact"]),
    # the service, logging JSON lines
    Door(CLI + ["serve", "--port", "{port}", "--rows", "16384", "--workers", "2",
                "--service-workers", "2", "--cell-cache", "svc_cells",
                "--cache", "svc_maps", "--cell-budget", "400"],
         {"REPRO_LOG_FORMAT": "json"}, client="drive_service"),
    # the benchmark, traced and untraced
    Door(E2E + ["--trace", "1"]),
    Door(E2E + ["--trace", "0"]),
] + [Door([PYTHON, str(ROOT / "examples" / name)]) for name in EXAMPLES]

#: Run from the checkout's root, like ``ROADMAP.md``'s tier-1 command.
TIER_1 = [PYTHON, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


# ---------------------------------------------------------------------------
# the service client: every route, every refusal
# ---------------------------------------------------------------------------


def _http(base: str, path: str, body: object = None, raw: bytes | None = None) -> tuple[int, bytes]:
    data = raw if raw is not None else (
        None if body is None else json.dumps(body).encode("utf-8")
    )
    request = urllib.request.Request(base + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def drive_service(base: str) -> None:
    for _ in range(100):
        try:
            if _http(base, "/healthz")[0] == 200:
                break
        except OSError:
            time.sleep(0.2)
    for path in ("/", "/scenarios", "/stats", "/metrics", "/nowhere", "/jobs/unknown"):
        _http(base, path)
    _http(base, "/nowhere", body={})
    _http(base, "/maps", raw=b"{not json")
    for refused in (
        {"scenario": "no_such_map"},
        {"scenario": "join", "overrides": {"n_workers": 4}},       # blocked
        {"scenario": "join", "overrides": {"no_such_knob": 1}},    # unknown
        {"scenario": "join", "overrides": {"n_rows": 0}},          # out of range
        {"scenario": "join", "overrides": {"refine": True, "refine_max_cells": -5}},
        {"scenario": "join", "overrides": {"seed": "abc"}},        # wrong type
        {"scenario": "two_predicate", "overrides": {"min_exp_2d": -24}},  # over budget
    ):
        _http(base, "/maps", body=refused)
    jobs = {}
    for name, body in {
        "join": {"scenario": "join"},
        "sort-spill": {"scenario": "sort-spill"},
        "sort_spill": {"scenario": "sort_spill"},                  # same job id
        "trace": {"scenario": "join", "overrides": {"trace": True, "seed": 7}},
        "refine": {"scenario": "two_predicate", "overrides": {
            "refine": True, "refine_max_cells": 40, "min_exp_2d": -6}},
        "single": {"scenario": "single_predicate"},
        "memory": {"scenario": "memory_sweep"},
        "estimation": {"scenario": "estimation"},
        # a workspace small enough that the cost model prices rid spills
        "tight": {"scenario": "estimation", "overrides": {"memory_bytes": 65536}},
    }.items():
        jobs[name] = json.loads(_http(base, "/maps", body=body)[1])["job_id"]
    _http(base, f"/jobs/{jobs['refine']}/partial")
    _http(base, f"/jobs/{jobs['estimation']}/result")              # 409 while running
    _http(base, f"/jobs/{jobs['join']}?wait=abc")
    for job_id in jobs.values():
        _http(base, f"/jobs/{job_id}?wait=60")
        _http(base, f"/jobs/{job_id}?wait=60")
    _http(base, "/metrics")
    for name, job_id in jobs.items():
        status, payload = _http(base, f"/jobs/{job_id}/result")
        plan = json.loads(payload)["map"]["plan_ids"][0] if status == 200 else "x"
        for leaf in (f"{plan}.svg", f"{plan}.png", f"{plan}.webp", "no-plan.svg", "svg"):
            _http(base, f"/jobs/{job_id}/render/{leaf}")
        for tail in ("", "/partial", "/choice", "/profile",
                     "/profile?format=chrome", "/profile?format=webp", "/nothing"):
            _http(base, f"/jobs/{job_id}{tail}")
    _http(base, "/maps", body={"scenario": "join"})                # dedup of a done job
    _http(base, "/stats")


# ---------------------------------------------------------------------------
# running the front doors under the hook
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_under_hook(
    commands: list[Door], record: Path, scratch: Path, cwd: Path
) -> None:
    """Run every command in ``cwd`` with the hook writing into ``record``."""
    record.mkdir(parents=True, exist_ok=True)
    hook_dir = scratch / f"hook-{record.name}"
    hook_dir.mkdir()
    defaults: dict[tuple[str, int], dict[str, str]] = {}
    for filename, lineno, _, parameter, source in parameters():
        defaults.setdefault((filename, lineno), {})[parameter] = source
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(root=str(PACKAGE) + os.sep, out=str(record), defaults=defaults)
    )
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src")])
    for door in commands:
        env = dict(base_env, **door.env)
        port = free_port()
        argv = [str(port) if part == "{port}" else part for part in door.argv]
        started = time.perf_counter()
        with open(scratch / "output.log", "ab") as log:
            log.write(("\n$ " + " ".join(argv) + "\n").encode())
            log.flush()
            offset = log.tell()
            if door.client is None:
                code = subprocess.run(
                    argv, cwd=cwd, env=env, stdout=log, stderr=log
                ).returncode
            else:
                process = subprocess.Popen(
                    argv, cwd=cwd, env=env, stdout=log, stderr=log
                )
                try:
                    globals()[door.client](f"http://127.0.0.1:{port}")
                finally:
                    process.send_signal(signal.SIGINT)
                    code = process.wait(timeout=60)
        shown = " ".join(argv[1:]).replace(str(ROOT) + os.sep, "")
        verdict = "" if code in door.fine else f"  <-- exit {code}, not in {door.fine}"
        print(
            f"  {time.perf_counter() - started:6.1f}s  {shown[:100]}{verdict}",
            file=sys.stderr, flush=True,
        )
        if verdict:
            with open(scratch / "output.log", "rb") as log:
                log.seek(offset)
                tail = log.read().decode(errors="replace").splitlines()[-20:]
            print("\n".join("      | " + line for line in tail), file=sys.stderr)


def reached(record: Path) -> set[tuple]:
    """``(file, line, name)`` of every definition called and ``(file, line,
    name, parameter)`` of every defaulted parameter given another value."""
    keys = set()
    for path in record.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, lineno, *names = line.split("\t")
            keys.add((filename, int(lineno), *names))
    return keys


# ---------------------------------------------------------------------------
# the definitions, and the report
# ---------------------------------------------------------------------------


@functools.cache  # the hook table and the report both walk it
def functions_by_file() -> list[tuple[str, list, dict]]:
    """``(file, its function nodes, node -> the lines it spans)`` per module.

    A span starts at the first decorator, as ``co_firstlineno`` does.
    """
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        spans = {}
        for node in functions:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[node] = set(range(first, node.end_lineno + 1))
        found.append((str(path), functions, spans))
    return found


def definitions() -> list[tuple[str, int, str, int]]:
    """``(file, first line, name, own lines)`` of every ``def`` in the package."""
    found = []
    for path, functions, spans in functions_by_file():
        for node in functions:
            own = set(spans[node])
            for child in ast.walk(node):
                if child is not node and child in spans:
                    own -= spans[child]
            found.append((path, min(spans[node]), node.name, len(own)))
    return found


def parameters() -> list[tuple[str, int, str, str, str]]:
    """``(file, first line, function, parameter, default's source)`` of every
    parameter whose default is a literal or a module constant's name."""
    found = []
    for path, functions, spans in functions_by_file():
        for node in functions:
            spec = node.args
            positional = spec.posonlyargs + spec.args
            pairs = list(zip(positional[len(positional) - len(spec.defaults):],
                             spec.defaults))
            pairs += [(arg, default)
                      for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                      if default is not None]
            for arg, default in pairs:
                if not isinstance(default, ast.Name):
                    try:
                        ast.literal_eval(default)
                    except ValueError:
                        continue
                found.append((path, min(spans[node]), node.name, arg.arg,
                              ast.unparse(default)))
    return found


def report(front: set, tests: set | None) -> None:
    def kind_of(key: tuple) -> str | None:
        if key in front:
            return None
        if tests is None:
            return "unreached"
        return "tests only" if key in tests else "nothing"

    per_file: dict[str, list[tuple[int, str, int, str]]] = {}
    totals = {"definitions": 0, "tests only": 0, "nothing": 0, "unreached": 0}
    lines = dict.fromkeys(totals, 0)
    for filename, lineno, name, own in definitions():
        totals["definitions"] += 1
        lines["definitions"] += own
        kind = kind_of((filename, lineno, name))
        if kind is None:
            continue
        totals[kind] += 1
        lines[kind] += own
        per_file.setdefault(filename, []).append((lineno, name, own, kind))
    for filename in sorted(per_file, key=lambda f: -sum(d[2] for d in per_file[f])):
        entries = per_file[filename]
        relative = Path(filename).relative_to(ROOT)
        print(f"{relative}: {len(entries)} definitions, {sum(d[2] for d in entries)} lines")
        for lineno, name, own, kind in entries:
            print(f"    {lineno:5d}  {name:40s} {own:4d}  {kind}")
    print()

    # Defaulted parameters that no call gave another value.  A parameter
    # of a definition nothing calls is never set either; it is marked.
    never_set: dict[str, list[tuple[int, str, str]]] = {}
    counts = {"parameters": 0, "tests only": 0, "nothing": 0, "unreached": 0}
    in_uncalled = 0
    for filename, lineno, name, parameter, default in parameters():
        counts["parameters"] += 1
        kind = kind_of((filename, lineno, name, parameter))
        if kind is None:
            continue
        counts[kind] += 1
        uncalled = (filename, lineno, name) not in front
        in_uncalled += uncalled
        never_set.setdefault(filename, []).append(
            (lineno, f"{name}({parameter}={default})",
             kind + (", definition not reached" if uncalled else ""))
        )
    for filename in sorted(never_set, key=lambda f: -len(never_set[f])):
        relative = Path(filename).relative_to(ROOT)
        print(f"{relative}: {len(never_set[filename])} parameters never set")
        for lineno, signature, kind in never_set[filename]:
            print(f"    {lineno:5d}  {signature:60s}  {kind}")
    print()

    print(f"{totals['definitions']} function definitions under src/repro "
          f"({lines['definitions']} lines)")
    if tests is None:
        print(f"reached by no front door: {totals['unreached']} "
              f"({lines['unreached']} lines)")
        split = ""
    else:
        unreached = totals["tests only"] + totals["nothing"]
        print(f"reached by no front door: {unreached} "
              f"({lines['tests only'] + lines['nothing']} lines) — "
              f"{totals['tests only']} by tests only ({lines['tests only']} lines), "
              f"{totals['nothing']} by nothing ({lines['nothing']} lines)")
        split = (f" — {counts['tests only']} set by tests only, "
                 f"{counts['nothing']} by nothing")
    unset = counts["tests only"] + counts["nothing"] + counts["unreached"]
    print(f"{counts['parameters']} parameters with a literal or module-constant "
          f"default; never set by a front door: {unset} "
          f"({in_uncalled} in definitions no door reaches){split}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 under the hook (tests-only vs nothing)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        print(f"front doors ({len(FRONT_DOORS)} commands):", file=sys.stderr)
        work = scratch / "work"
        work.mkdir()
        run_under_hook(FRONT_DOORS, scratch / "front", scratch, work)
        tests = None
        if args.tests:
            print("tier-1:", file=sys.stderr)
            run_under_hook([Door(TIER_1)], scratch / "tests", scratch, ROOT)
            tests = reached(scratch / "tests")
        report(reached(scratch / "front"), tests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
