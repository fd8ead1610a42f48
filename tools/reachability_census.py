"""Which definitions under ``src/repro`` does no front door reach, which of
their options does no front door ever turn, and which lines inside the
definitions they do reach does no front door ever execute?

Writes a ``sitecustomize.py`` into a temporary directory that installs
``sys.settrace`` / ``threading.settrace`` and appends every code object
under ``src/repro`` to a per-process file the first time it is called,
every parameter of it whose default is a literal or a module constant
(read from the AST) the first time a call binds it to anything else, and
every line of it the first time it runs (a code object all of whose lines
have run is traced no further) — puts that directory on ``PYTHONPATH``,
and runs each command of :data:`FRONT_DOORS` — the CLI's figure and
scenario modes, the HTTP service with every route and error route hit
(:func:`drive_service`), the end-to-end benchmark and the examples — in
a scratch directory.  Pool workers and the service's sweep processes
inherit the hook through the environment.  (``benchmarks/e2e/run.py``
gives its CLI children a ``PYTHONPATH`` of its own, so those are not
hooked; they run the command the first entries run directly, and the
``--trace 1`` run replays it in the hooked process.)  With ``--tests``
the tier-1 suite runs the same way, into a second record.

The report has three judged lists, each with a total.  *Definitions*: every
``def`` under ``src/repro`` no front door called, per file with its line
count (a definition's lines minus the definitions nested in it).
*Parameters*: those never given another value — each one a constant, a
test seam, a config knob carried at its default, or a configuration with
no door.  *Bodies*: inside the definitions that were called, every
statement list (the body of an ``if``, a loop, a ``with`` or a ``try``,
an ``else``, an ``except`` handler, a ``case``) none of whose lines ran,
outermost only, counted in executable lines as the compiler's line table
has them.  A fourth list, shown and never judged, names the lines no door
ran *beside* lines that ran (outside every body of the third list: the
tail after an early ``return``, say), per definition.

A definition or body nothing ran must be accounted for, or the exit code
is 1.  Two kinds are recognised from the source and need no entry: a
body that ends in ``raise`` or in a ``parser.error`` call (a *refusal*;
so is a definition whose whole body does), and the body of an ``except``
clause (a *fault handler*).  Everything else is a row of the committed
``tools/census_kept.txt``::

    file:Qualified.name[ > first line of the statement that owns the body]  reason  anchor

with columns two or more spaces apart and ``reason`` one of

* ``abstract`` — an abstract method (overridden everywhere it is called);
* ``repr`` — a ``__repr__`` / ``__str__`` for whoever debugs;
* ``reference`` — a scalar twin, an oracle or a golden-file reader that
  ``anchor``, a test (``tests/x.py::test_y``, checked to exist), compares
  the fast path against;
* ``guard`` — the answer to an input no front door produces (an empty
  input, a zero divisor, a NaN, a plan shape the registry does not
  build, the violation a claim that holds never sees) that ``anchor``, a
  test, pins; safety code, never a deletion target;
* ``promised`` — a README line or an example (``anchor``) says it exists;
* ``dated`` — kept for the ROADMAP item ``anchor`` names, which ends with
  it reached or deleted.

A row whose subject is gone from the source fails the run too; one whose
subject ran this time is only reported (timing decides a few paths).
Removing any row that is still needed makes the run fail: the list can
only shrink silently, never grow.  Nothing under ``src/`` is changed or
imported.  Takes about five minutes, plus the suite under the tracer
with ``--tests`` (which adds *tests run it* / *nothing runs it* to every
line of the report); a blocking CI step.  A command that exits with a
code it should not has the tail of its output printed, and fails the run;
the scratch directory is deleted either way.

Usage::

    python tools/reachability_census.py [--tests]
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import re
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
#: One row per definition or body that stays though no front door runs it.
KEPT = ROOT / "tools" / "census_kept.txt"
#: Reasons a row may give; the second set names what holds it in place,
#: and the third names a test.
UNANCHORED = {"abstract", "repr"}
ANCHORED = {"reference", "guard", "promised", "dated"}
TESTED = {"reference", "guard"}

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


#: code -> its line numbers no frame has executed yet
_unseen = {{}}
_tracers = {{}}


def _line_tracer(filename, unseen):
    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in unseen:
            unseen.discard(frame.f_lineno)
            _write(filename, str(frame.f_lineno))
        return trace_lines

    return trace_lines


def _trace(frame, event, arg):
    # The global trace function sees "call" events only.
    code = frame.f_code
    pending = _pending.get(code, _pending)
    if pending is _pending:  # first call of this code object
        pending = _pending[code] = {{}}
        if not code.co_filename.startswith(_ROOT):
            return None
        _write(code.co_filename, str(code.co_firstlineno), code.co_name)
        sources = _DEFAULTS.get((code.co_filename, code.co_firstlineno), {{}})
        for name, source in sources.items():
            pending[name] = eval(source, frame.f_globals)
        _unseen[code] = {{line for _, _, line in code.co_lines() if line}}
        _tracers[code] = _line_tracer(code.co_filename, _unseen[code])
    if pending:
        bound = frame.f_locals
        for name, default in list(pending.items()):  # other threads pop too
            if name in bound and not _same(bound[name], default):
                if pending.pop(name, _pending) is not _pending:
                    _write(code.co_filename, str(code.co_firstlineno), code.co_name, name)
    # A code object all of whose lines have run is traced no further.
    return _tracers[code] if _unseen.get(code) else None


threading.settrace(_trace)
sys.settrace(_trace)
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
    # figure mode at the default 2^17 rows, on the pool: cold, warm; serial
    # with per-cell progress; refined
    Door(CLI + ["figs", "--quiet", "--cell-cache", "cells"]),
    Door(CLI + ["figs", "--quiet", "--cell-cache", "cells"]),
    Door(CLI + ["figs_progress", "--figures", "fig01,ext_sort_spill", "--progress",
                "--workers", "0"]),
    Door(CLI + ["figs_refine", "--figures", "fig01, fig03", "--refine", "--quiet"]),
    Door(CLI + ["figs_unknown", "--figures", "fig99"], fine=(2,)),
    # scenario mode
    Door(CLI + ["scen", "--scenario", ALL_SCENARIOS, "--regret", "--quiet"]),
    Door(CLI + ["scen_refine", "--scenario", "join,two_predicate", "--refine",
                "--max-cells", "40", "--progress", "--workers", "2"]),
    Door(CLI + ["scen_trace", "--scenario", "join,sort_spill", "--workers", "2",
                "--trace-out", "scen_trace/trace.json", "--quiet"]),
    Door(CLI + ["scen_unknown", "--scenario", "no_such_map"], fine=(2,)),
    Door(CLI + ["scen_regret", "--scenario", "join", "--regret"], fine=(2,)),
    # a traced pool sweep over a cold store, then over the warm one
    # (parent-side replay, profiles included)
    Door(CLI + ["scen_pool", "--scenario", "join,sort_spill", "--workers", "2",
                "--cell-cache", "pool_cells", "--trace", "--quiet"]),
    Door(CLI + ["scen_pool", "--scenario", "join,sort_spill", "--workers", "2",
                "--cell-cache", "pool_cells", "--trace", "--quiet"]),
    # a writer killed mid-append: the next run's appends start on a fresh
    # line, and the run after that skips, counts and reports the fragment
    Door([PYTHON, "-c", "open('pool_cells/cells-0.jsonl', 'ab').write(b'{\"k\": \"torn')"]),
    Door(CLI + ["scen_torn", "--scenario", "sort_spill", "--cell-cache", "pool_cells",
                "--quiet"], {"REPRO_BENCH_ROWS": "4096"}),
    Door(CLI + ["scen_torn", "--scenario", "sort_spill", "--cell-cache", "pool_cells",
                "--quiet"], {"REPRO_BENCH_ROWS": "4096"}),
    # the same in process; a sweep on all cores
    Door(CLI + ["scen_trace_store", "--scenario", "join", "--trace",
                "--cell-cache", "trace_cells", "--workers", "0", "--quiet"]),
    Door(CLI + ["scen_trace_store", "--scenario", "join", "--trace",
                "--cell-cache", "trace_cells", "--workers", "0", "--quiet"]),
    Door(CLI + ["scen_all_cores", "--scenario", "sort_spill", "--workers", "-1",
                "--quiet"]),
    # the cell store's housekeeping
    Door(CLI + ["--cell-cache", "cells", "--cell-cache-compact"]),
    # the service, logging JSON lines
    Door(CLI + ["serve", "--port", "{port}", "--rows", "16384", "--workers", "2",
                "--service-workers", "2", "--cell-cache", "svc_cells",
                "--cell-budget", "400"],
         {"REPRO_LOG_FORMAT": "json"}, client="drive_service"),
    # the benchmark, traced and untraced
    Door(E2E + ["--trace", "1"]),
    Door(E2E + ["--trace", "0"]),
] + [Door([PYTHON, str(ROOT / "examples" / name)]) for name in EXAMPLES]

#: Run from the checkout's root, like ``ROADMAP.md``'s tier-1 command.  A
#: fixed hypothesis seed draws the same examples every run, so two runs on
#: one tree set the same parameters ("set by tests only" stays put).
TIER_1 = [
    PYTHON,
    "-m",
    "pytest",
    "-x",
    "-q",
    "-p",
    "no:cacheprovider",
    "--hypothesis-seed=0",
]


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
        {"scenario": "join", "overrides": {"budget_scale": "x"}},
        {"scenario": "join", "overrides": {"budget_scale": -1}},    # not positive
        {"scenario": "join", "overrides": {"budget_scale": float("nan")}},
        {"scenario": "join", "overrides": {"min_exp_2d": 1}},       # above 2^0
        {"scenario": "join", "overrides": {"join_rows": [64, 64]}}, # axis repeats
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
    for tail in ("/result", "/choice", "/profile", "/render/x.svg"):
        _http(base, f"/jobs/{jobs['tight']}{tail}")                 # 409: queued last
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
) -> bool:
    """Run every command in ``cwd`` with the hook writing into ``record``;
    whether each exited with a code that is fine for it."""
    all_fine = True
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
            all_fine = False
            with open(scratch / "output.log", "rb") as log:
                log.seek(offset)
                tail = log.read().decode(errors="replace").splitlines()[-20:]
            print("\n".join("      | " + line for line in tail), file=sys.stderr)
    return all_fine


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


class Module(NamedTuple):
    """One source file: its ``def`` nodes, the lines each spans (from the
    first decorator, as ``co_firstlineno`` does), each one's dotted name,
    and the body lines of each that the compiler gave an instruction."""

    path: str
    source: list[str]
    functions: list
    spans: dict
    names: dict
    executable: dict


def _qualified_names(tree: ast.Module) -> dict:
    names = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = prefix + child.name + "."
                names[child] = prefix + child.name
            visit(child, inner)

    visit(tree, "")
    return names


def _lines_by_code(code, found: dict) -> set[int]:
    """Fill ``found`` with ``(first line, name) -> line numbers`` of every
    ``def`` compiled into ``code``; lambdas and comprehensions count as
    lines of the definition around them."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            inner = _lines_by_code(const, found)
            if const.co_name.startswith("<"):
                lines |= inner
            else:
                found[const.co_firstlineno, const.co_name] = inner
    return lines


@functools.cache  # the hook table and the report both walk it
def modules() -> list[Module]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        spans = {}
        for node in functions:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[node] = set(range(first, node.end_lineno + 1))
        compiled: dict = {}
        _lines_by_code(compile(text, str(path), "exec"), compiled)
        executable = {}
        for node in functions:
            # The ``def`` line carries RESUME, which fires no line event.
            lines = compiled.get((min(spans[node]), node.name), set())
            executable[node] = {line for line in lines if line > node.lineno}
        found.append(Module(str(path), text.splitlines(), functions, spans,
                            _qualified_names(tree), executable))
    return found


def definitions() -> list[tuple[str, int, str, int]]:
    """``(file, first line, name, own lines)`` of every ``def`` in the package."""
    found = []
    for module in modules():
        for node in module.functions:
            own = set(module.spans[node])
            for child in ast.walk(node):
                if child is not node and child in module.spans:
                    own -= module.spans[child]
            found.append((module.path, min(module.spans[node]), node.name, len(own)))
    return found


def parameters() -> list[tuple[str, int, str, str, str]]:
    """``(file, first line, function, parameter, default's source)`` of every
    parameter whose default is a literal or a module constant's name."""
    found = []
    for path, _, functions, spans, _, _ in modules():
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


class Body(NamedTuple):
    """One statement list nested in a definition: the body of an ``if``,
    a loop, a ``with`` or a ``try``, an ``else``, a handler, a ``case``."""

    label: str
    statements: list
    handler: bool


def _header(module: Module, statement: ast.AST) -> str:
    return " ".join(module.source[statement.lineno - 1].split())


def nested_bodies(module: Module, statements: list) -> list[Body]:
    """The bodies one level below ``statements``, not those of nested defs."""
    found = []
    for statement in statements:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        header = _header(module, statement)
        for field, prefix in (("body", ""), ("orelse", "else of "),
                              ("finalbody", "finally of ")):
            inner = getattr(statement, field, None)
            if not inner:
                continue
            label = prefix + header
            if field == "orelse" and _header(module, inner[0]).startswith("elif "):
                label = _header(module, inner[0])
            found.append(Body(label, inner, False))
        for handler in getattr(statement, "handlers", []):
            found.append(Body(_header(module, handler), handler.body, True))
        for case in getattr(statement, "cases", []):
            found.append(Body(_header(module, case.pattern), case.body, False))
    return found


def _refuses(statements: list) -> bool:
    """Whether a body ends by raising or in ``parser.error`` (what comes
    before counts the refusal or words it)."""
    last = statements[-1]
    if isinstance(last, ast.Raise):
        return True
    call = last.value if isinstance(last, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "error"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "parser")


def unexecuted_bodies(module: Module, node: ast.AST, ran: set) -> list[tuple[Body, set]]:
    """The outermost bodies in ``node`` none of whose lines is in ``ran``,
    each with its executable lines."""
    found = []

    def visit(statements: list) -> None:
        for body in nested_bodies(module, statements):
            first, last = body.statements[0].lineno, body.statements[-1].end_lineno
            lines = {line for line in module.executable[node] if first <= line <= last}
            if lines and not lines & ran:
                found.append((body, lines))
            else:
                visit(body.statements)

    visit(node.body)
    return found


def read_kept() -> dict[str, tuple[str, str]]:
    """``key -> (reason, anchor)`` of :data:`KEPT`; refuses a malformed row."""
    kept = {}
    for number, line in enumerate(KEPT.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, reason, *anchor = re.split(r"\s{2,}", line.strip(), maxsplit=2)
        anchor = anchor[0] if anchor else ""
        problem = None
        if reason not in ANCHORED and reason not in UNANCHORED:
            problem = f"reason {reason!r} is none of {sorted(UNANCHORED | ANCHORED)}"
        elif reason in ANCHORED and not anchor:
            problem = f"a {reason!r} row names its anchor"
        elif key in kept:
            problem = "listed twice"
        elif reason in TESTED:
            test_file, _, test = anchor.partition("::")
            if not (ROOT / test_file).is_file() or (
                f"def {test}(" not in (ROOT / test_file).read_text()
            ):
                problem = f"no test {anchor!r}"
        elif reason in ANCHORED:
            # ``file`` or ``file "words the file contains"``
            named, _, quoted = anchor.partition(' "')
            if not (ROOT / named).is_file() or (
                quoted.rstrip('"') not in (ROOT / named).read_text()
            ):
                problem = f"{anchor!r} names no file, or words it does not contain"
        if problem:
            raise SystemExit(f"{KEPT.relative_to(ROOT)}:{number}: {problem}")
        kept[key] = (reason, anchor)
    return kept


def report(front: set, tests: set | None) -> bool:
    """Print the four lists and their totals; whether every definition and
    body no door runs is a refusal, a fault handler or a row of the list."""
    def kind_of(key: tuple) -> str | None:
        if key in front:
            return None
        if tests is None:
            return "unreached"
        return "tests only" if key in tests else "nothing"

    kept = read_kept()
    used: set[str] = set()
    unlisted = 0

    def verdict_of(key: str) -> str:
        nonlocal unlisted
        if key in kept:
            used.add(key)
            return "kept: " + " ".join(kept[key])
        unlisted += 1
        return "NOT LISTED"

    per_file: dict[str, list[tuple[int, str, int, str]]] = {}
    totals = {"definitions": 0, "tests only": 0, "nothing": 0, "unreached": 0}
    lines = dict.fromkeys(totals, 0)
    def lines_by_file(keys: set | None) -> dict[str, set[int]]:
        grouped: dict[str, set[int]] = {}
        for key in keys or ():
            if len(key) == 2:
                grouped.setdefault(key[0], set()).add(key[1])
        return grouped

    names, refusing = {}, set()
    for module in modules():
        for node in module.functions:
            key = (module.path, min(module.spans[node]), node.name)
            names[key] = f"{Path(module.path).relative_to(ROOT)}:{module.names[node]}"
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if body and _refuses(body):
                refusing.add(key)

    bodies: dict[str, list[tuple[int, str, int, str]]] = {}
    beside: dict[str, list[tuple[int, str, list[int]]]] = {}
    line_totals = {"executable": 0, "never run": 0, "definitions": 0,
                   "refusals": 0, "other bodies": 0}
    ran_by_file, tested_by_file = lines_by_file(front), lines_by_file(tests)
    for module in modules():
        relative = str(Path(module.path).relative_to(ROOT))
        ran = ran_by_file.get(module.path, set())
        by_tests = tested_by_file.get(module.path, set())
        for node in module.functions:
            executable = module.executable[node]
            line_totals["executable"] += len(executable)
            line_totals["never run"] += len(executable - ran)
            key = (module.path, min(module.spans[node]), node.name)
            if key not in front:
                line_totals["definitions"] += len(executable)
                continue
            unentered: set[int] = set()
            for body, body_lines in unexecuted_bodies(module, node, ran):
                unentered |= body_lines
                if body.handler:
                    verdict = "fault handler"
                elif _refuses(body.statements):
                    verdict = "refusal"
                else:
                    verdict = verdict_of(f"{names[key]} > {body.label}")
                line_totals["refusals" if verdict in ("fault handler", "refusal")
                            else "other bodies"] += len(body_lines)
                if tests is not None:
                    verdict += ("  (tests run it)" if body_lines & by_tests
                                else "  (nothing runs it)")
                bodies.setdefault(relative, []).append(
                    (min(body_lines), f"{module.names[node]} > {body.label}",
                     len(body_lines), verdict))
            stray = sorted(executable - ran - unentered)
            if stray:
                beside.setdefault(relative, []).append(
                    (stray[0], module.names[node], stray))

    for filename, lineno, name, own in definitions():
        totals["definitions"] += 1
        lines["definitions"] += own
        kind = kind_of((filename, lineno, name))
        if kind is None:
            continue
        totals[kind] += 1
        lines[kind] += own
        key = (filename, lineno, name)
        verdict = "refusal" if key in refusing else verdict_of(names[key])
        per_file.setdefault(filename, []).append((lineno, name, own, f"{kind}  {verdict}"))
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

    # Bodies inside reached definitions of which no line ran.
    for relative in sorted(bodies, key=lambda f: -sum(b[2] for b in bodies[f])):
        entries = bodies[relative]
        print(f"{relative}: {len(entries)} bodies never entered, "
              f"{sum(b[2] for b in entries)} lines")
        for lineno, label, count, verdict in entries:
            print(f"    {lineno:5d}  {label:70s} {count:3d}  {verdict}")
    print()

    # Lines no door ran beside lines that ran: the tail after an early
    # return, the rest of a body a loop left.  Shown only, never judged.
    for relative in sorted(beside, key=lambda f: -sum(len(b[2]) for b in beside[f])):
        entries = beside[relative]
        print(f"{relative}: {sum(len(b[2]) for b in entries)} lines beside lines "
              f"that ran, in {len(entries)} definitions")
        for _, name, stray in entries:
            print(f"    {name:70s} {len(stray):3d}  lines "
                  + ", ".join(map(str, stray)))
    print()

    # A row that names nothing in the source is wrong whatever ran; one
    # whose subject ran this time may sit on a timing-dependent path.
    present = set(names.values())
    for module in modules():
        for node in module.functions:
            pending = [node.body]
            while pending:
                for body in nested_bodies(module, pending.pop()):
                    present.add(f"{names[module.path, min(module.spans[node]), node.name]}"
                                f" > {body.label}")
                    pending.append(body.statements)
    gone = sorted(set(kept) - present)
    for key in sorted(set(kept) - used):
        print(f"{KEPT.relative_to(ROOT)}: {key!r} "
              + ("names nothing under src/repro" if key in gone else "ran this time")
              + " — delete the row")
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
    n_bodies = sum(len(entries) for entries in bodies.values())
    after_exit = (line_totals["never run"] - line_totals["definitions"]
                  - line_totals["refusals"] - line_totals["other bodies"])
    print(f"{line_totals['executable']} executable lines in function bodies; "
          f"never executed by a front door: {line_totals['never run']} — "
          f"{line_totals['definitions']} in definitions no door reaches, "
          f"{line_totals['refusals']} in refusals and fault handlers, "
          f"{line_totals['other bodies']} in other bodies never entered "
          f"({n_bodies} bodies in all), {after_exit} beside lines that ran")
    print(f"neither a refusal, a fault handler nor a row of "
          f"{KEPT.relative_to(ROOT)}: {unlisted}")
    return unlisted == 0 and not gone


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
        fine = run_under_hook(FRONT_DOORS, scratch / "front", scratch, work)
        tests = None
        if args.tests:
            print("tier-1:", file=sys.stderr)
            run_under_hook([Door(TIER_1)], scratch / "tests", scratch, ROOT)
            tests = reached(scratch / "tests")
        closed = report(reached(scratch / "front"), tests)
    return 0 if fine and closed else 1


if __name__ == "__main__":
    sys.exit(main())
