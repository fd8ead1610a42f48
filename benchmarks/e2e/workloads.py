"""The four workloads: two front doors, each cold and warm.

Closed loop throughout: a client sends its next request only after the
previous one is complete.  A workload is a sequence of *units* (one CLI
run, one pass over the service request list, one service round); the
timed section runs whole units until its time box is used up.

Why these four (the short form is in BENCHMARK.json, the long form in
README.md): ``cli_cold`` is executor-bound and only *writes* the cell
store; ``cli_warm`` is interpreter start, store *reads*, replay and
figure rendering; ``service_cold`` is small maps through the process
pool, where per-job fixed costs are a large share; ``service_warm`` is a
long-lived process replaying from the store, where a fresh session per
job is what remains.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

from common import (
    HERE,
    REQUEST_TIMEOUT_S,
    Scale,
    canonical_json,
    child_env,
    children_peak_rss_mb,
    own_peak_rss_mb,
    sha256,
)

SpanFn = Callable[..., ContextManager]


def no_span(*_args, **_kwargs) -> ContextManager:
    return nullcontext()


@dataclass
class Outcome:
    """One request, as its client saw it."""

    kind: str
    seconds: float
    measurements: int = 0
    error: str | None = None
    rss_mb: float | None = None
    detail: dict = field(default_factory=dict)


class Verifier:
    """Compares output digests with expected.json, or collects new ones.

    Digests exist for the default seed at full scale only.  For any other
    run the structural checks still apply and the run says so.
    """

    def __init__(self, expected: dict, enabled: bool, update: bool) -> None:
        self.expected = expected
        self.enabled = enabled
        self.update = update
        self.collected: dict[str, str] = {}
        self.checked = 0

    def check(self, key: str, digest: str) -> str | None:
        if not self.enabled:
            return None
        if self.update:
            self.collected[key] = digest
            return None
        want = self.expected.get(key)
        if want is None:
            return None  # beyond what expected.json covers
        self.checked += 1
        if want != digest:
            return f"digest of {key} is {digest[:12]}, expected {want[:12]}"
        return None

    @property
    def note(self) -> str:
        if not self.enabled:
            return "digests unverified"
        if self.update:
            return f"digests collected: {len(self.collected)}"
        return f"digests verified: {self.checked}"


# ---------------------------------------------------------------------------
# front door 1: the CLI as a fresh process
# ---------------------------------------------------------------------------

_STORE_LINE = re.compile(
    r"(\d+)/(\d+) cells from store .*?(\d+) measurements written, "
    r"(\d+) entries total"
)


def artifacts_digest(directory: Path) -> tuple[str, int, int]:
    """(digest over names and bytes, file count, total bytes)."""
    parts = []
    total = 0
    files = sorted(p for p in directory.iterdir() if p.is_file())
    for path in files:
        data = path.read_bytes()
        total += len(data)
        parts.append(f"{path.name}:{sha256(data)}")
    return sha256("\n".join(parts).encode()), len(files), total


def run_cli(
    cwd: Path, scale: Scale, warm: bool, verifier: Verifier, workers: int = 0
) -> Outcome:
    """``python -m repro.bench.cli out --quiet --cell-cache store`` in
    ``cwd``, timed from process start to exit, then checked."""
    out_dir = cwd / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [
        sys.executable,
        "-m",
        "repro.bench.cli",
        "out",
        "--quiet",
        "--cell-cache",
        "store",
    ]
    if workers:
        argv += ["--workers", str(workers)]
    stdout_path = cwd / "stdout.txt"
    start = time.perf_counter()
    with stdout_path.open("wb") as stdout:
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=child_env(dict(scale.cli_env)),
            stdout=stdout,
            stderr=subprocess.DEVNULL,
        )
        killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    outcome = Outcome(
        kind="cli_warm" if warm else "cli_cold",
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    text = stdout_path.read_text()
    outcome.error = check_cli(text, proc.returncode, warm, scale, outcome)
    if outcome.error is None and workers == 0:
        digest, n_files, n_bytes = artifacts_digest(out_dir)
        outcome.detail.update(artifacts=n_files, artifact_bytes=n_bytes)
        outcome.error = verifier.check(
            f"{outcome.kind}|stdout", sha256(text.encode())
        ) or verifier.check("cli|artifacts", digest)
    return outcome


def check_cli(
    text: str, returncode: int, warm: bool, scale: Scale, outcome: Outcome
) -> str | None:
    if returncode < 0:
        return f"killed by signal {-returncode} (timeout {REQUEST_TIMEOUT_S}s)"
    verdicts = [line for line in text.splitlines() if "CLAIMS" in line]
    if not verdicts:
        return f"exit {returncode} without a verdict line"
    # Claims are calibrated for the default scale; a smoke-scale run may
    # legitimately print SOME CLAIMS FAILED and exit 1.
    if scale.verified and (returncode != 0 or verdicts[-1] != "ALL CLAIMS HOLD"):
        return f"exit {returncode}: {verdicts[-1]}"
    match = _STORE_LINE.search(text)
    if match is None:
        return "no cell-store summary line"
    hits, lookups, written, entries = (int(g) for g in match.groups())
    outcome.detail.update(
        store_hits=hits, store_lookups=lookups, store_writes=written
    )
    if warm:
        outcome.measurements = entries
        if hits != lookups or written:
            return f"warm run read {hits}/{lookups} cells, wrote {written}"
    else:
        outcome.measurements = written
        if hits or written != entries:
            return f"cold run hit {hits} cells, wrote {written}/{entries}"
    return None


# ---------------------------------------------------------------------------
# front door 2: the map service over HTTP
# ---------------------------------------------------------------------------

PLAN_COUNTS = {
    "two_predicate": 15,
    "two_predicate_nojitter": 15,
    "memory_sweep": 7,
    "estimation": 7,
    "single_predicate": 7,
    "join": 4,
    "sort_spill": 2,
}


def request_list(scale: Scale, seed: int, offset: int = 0) -> list[dict]:
    """The seven request shapes; request ``i`` carries seed+offset+i, so
    no two requests of a run share a table, a job id or a store key."""
    shapes: list[tuple[str, dict]] = [
        ("two_predicate", {}),
        ("two_predicate_nojitter", {}),
        ("memory_sweep", {}),
        ("estimation", {}),
        ("single_predicate", {}),
        ("join", {"join_rows": list(scale.join_rows)}),
        (
            "sort_spill",
            {
                "sort_rows": list(scale.sort_rows),
                "sort_memory": list(scale.sort_memory),
            },
        ),
    ]
    return [
        {"scenario": name, "overrides": {**overrides, "seed": seed + offset + i}}
        for i, (name, overrides) in enumerate(shapes)
    ]


def expected_shape(scale: Scale, scenario: str) -> tuple[int, ...]:
    two_d = 1 - scale.min_exp_2d
    return {
        "two_predicate": (two_d, two_d),
        "two_predicate_nojitter": (two_d, two_d),
        "memory_sweep": (two_d, 5),
        "estimation": (two_d, 5),
        "single_predicate": (1 - scale.min_exp_1d,),
        "join": (len(scale.join_rows),) * 2,
        "sort_spill": (len(scale.sort_rows), len(scale.sort_memory)),
    }[scenario]


def bench_config(scale: Scale, rows: int, store: Path | None, workers: int):
    """A BenchConfig with every environment-derived field pinned."""
    from repro.bench.harness import BenchConfig

    return BenchConfig(
        n_rows=rows,
        min_exp_1d=scale.min_exp_1d,
        min_exp_2d=scale.min_exp_2d,
        refine=False,
        refine_max_cells=0,
        n_workers=workers,
        cache_dir=None,
        cell_cache_dir=str(store) if store is not None else None,
        trace=False,
    )


class Service:
    """One JobManager behind a real HTTP server on an ephemeral port."""

    def __init__(self, config, workers: int) -> None:
        from repro.service import JobManager, build_server

        self.manager = JobManager(
            config, workers=workers, queue_limit=16, snapshot_every=1
        )
        self.server = build_server(self.manager)
        host, port = self.server.server_address[:2]
        self.base = f"http://{host}:{port}"
        # A short poll interval, so shutting a round's server down does
        # not sit in the timed section for half a second.
        self._thread = threading.Thread(
            target=self.server.serve_forever, args=(0.01,), daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)
        self.manager.close()


def http(base: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
    """One HTTP exchange; an error status is an answer, not an exception."""
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def run_request(
    base: str,
    request: dict,
    scale: Scale,
    rows: int,
    verifier: Verifier,
    span: SpanFn = no_span,
) -> Outcome:
    """POST /maps, long-poll the job, fetch the map, fetch every render.

    The clock stops when the last rendered artifact is in hand.  1-D
    maps have no PNG (the service answers 400 by design), so only valid
    artifacts are requested.
    """
    scenario = request["scenario"]
    outcome = Outcome(kind=scenario, seconds=0.0)
    start = time.perf_counter()
    deadline = start + REQUEST_TIMEOUT_S
    try:
        with span("service.client.request", "service.client", scenario):
            mapdata = _drive_request(base, request, span, outcome, deadline)
    except RequestFailed as exc:
        outcome.error = str(exc)
    except (OSError, ValueError, KeyError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.seconds = time.perf_counter() - start
    if outcome.error is None:
        outcome.error = _check_map(request, mapdata, scale, rows, verifier, outcome)
    return outcome


class RequestFailed(Exception):
    """The service refused, failed or timed out a request."""


def _drive_request(base, request, span, outcome, deadline) -> dict:
    """The four phases of one request; returns the map it delivered."""
    detail = outcome.detail
    clock = time.perf_counter
    t0 = clock()
    with span("service.client.submit", "service.client"):
        code, body = http(base, "/maps", request)
    detail["submit_s"] = clock() - t0
    if code != 202:
        detail["rejected"] = code == 429
        raise RequestFailed(f"POST /maps answered {code}: {body[:200]!r}")
    job_id = json.loads(body)["job_id"]
    t0 = clock()
    with span("service.client.wait", "service.client"):
        while True:
            code, body = http(base, f"/jobs/{job_id}?wait=30")
            status = json.loads(body)
            if code != 200 or status["state"] in ("done", "failed"):
                break
            if clock() > deadline:
                raise RequestFailed(
                    f"job {job_id} still {status['state']} at the deadline"
                )
    detail["wait_s"] = clock() - t0
    if code != 200 or status["state"] != "done":
        raise RequestFailed(
            f"job {job_id}: {status.get('state')}: {status.get('error')}"
        )
    detail.update(
        job_s=status["elapsed"],
        cache_hits=status["cache_hits"],
        cells=status["total"],
        done=status["done"],
    )
    t0 = clock()
    with span("service.client.result", "service.client"):
        code, body = http(base, f"/jobs/{job_id}/result")
        if code != 200:
            raise RequestFailed(f"GET result answered {code}")
        mapdata = json.loads(body)["map"]
    detail["result_s"] = clock() - t0
    detail["result_bytes"] = len(body)
    formats = ("svg", "png") if len(mapdata["axes"]) == 2 else ("svg",)
    rendered = 0
    t0 = clock()
    with span("service.client.render", "service.client"):
        for plan_id in mapdata["plan_ids"]:
            quoted = urllib.parse.quote(plan_id, safe="")
            for fmt in formats:
                code, body = http(base, f"/jobs/{job_id}/render/{quoted}.{fmt}")
                magic = b"<svg" if fmt == "svg" else b"\x89PNG"
                if code != 200 or magic not in body[:256]:
                    raise RequestFailed(f"render {plan_id}.{fmt} answered {code}")
                rendered += len(body)
    detail["render_s"] = clock() - t0
    detail["render_bytes"] = rendered
    return mapdata


def _check_map(request, mapdata, scale, rows, verifier, outcome) -> str | None:
    """What can be checked of a delivered map, after the clock stopped."""
    scenario = request["scenario"]
    detail = outcome.detail
    plan_ids = mapdata["plan_ids"]
    shape = tuple(len(axis["targets"]) for axis in mapdata["axes"])
    cells = 1
    for n in shape:
        cells *= n
    outcome.measurements = len(plan_ids) * cells
    if shape != expected_shape(scale, scenario):
        return f"{scenario}: grid {shape}, expected {expected_shape(scale, scenario)}"
    if len(plan_ids) != PLAN_COUNTS[scenario]:
        return f"{scenario}: {len(plan_ids)} plans, expected {PLAN_COUNTS[scenario]}"
    if detail["cells"] != cells or detail["done"] != cells:
        return f"{scenario}: job reports {detail['done']}/{detail['cells']} of {cells}"
    detail["digest"] = sha256(canonical_json(mapdata))
    key = f"map|{scenario}|rows={rows}|{canonical_json(request['overrides']).decode()}"
    return verifier.check(key, detail["digest"])


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


@dataclass
class Context:
    scale: Scale
    seed: int
    work: Path
    verifier: Verifier


class Workload:
    """Set-up once, then whole units until the time box is used up."""

    name = "?"
    min_units = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Everything a run needs before its first timed request."""

    def unit(self, index: int) -> list[Outcome]:
        raise NotImplementedError

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        """Largest resident set among the processes that served timed
        requests (the benchmark's own set-up children are left out)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever set-up started."""


def _import_probe() -> None:
    """Start the interpreter and import the CLI once, so byte-code caches
    exist before the first timed process start."""
    subprocess.run(
        [sys.executable, "-c", "import repro.bench.cli"],
        env=child_env(),
        check=True,
        timeout=REQUEST_TIMEOUT_S,
    )


class CliCold(Workload):
    """Fresh process, empty cell store, all fifteen figures."""

    name = "cli_cold"

    def setup(self) -> None:
        _import_probe()

    def unit(self, index: int) -> list[Outcome]:
        cwd = self.ctx.work / f"cold-{index}"
        cwd.mkdir()
        outcome = run_cli(cwd, self.ctx.scale, False, self.ctx.verifier)
        shutil.rmtree(cwd, ignore_errors=True)
        return [outcome]

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return max(o.rss_mb or 0.0 for o in outcomes)


class CliWarm(CliCold):
    """Fresh process each time, over a store filled once in set-up."""

    name = "cli_warm"
    min_units = 5

    def setup(self) -> None:
        self.cwd = self.ctx.work / "warm"
        self.cwd.mkdir()
        # Two worker processes: the store comes out the same (the pool
        # engine is bit-identical) and set-up takes less of the run.
        filled = run_cli(
            self.cwd, self.ctx.scale, False, self.ctx.verifier, workers=2
        )
        if filled.error is not None:
            raise RuntimeError(f"could not fill the cell store: {filled.error}")
        warmup = run_cli(self.cwd, self.ctx.scale, True, self.ctx.verifier)
        if warmup.error is not None:
            raise RuntimeError(f"warm-up request failed: {warmup.error}")

    def unit(self, index: int) -> list[Outcome]:
        return [run_cli(self.cwd, self.ctx.scale, True, self.ctx.verifier)]


class ServiceCold(Workload):
    """One client, one job at a time, process-pool sweeps, empty store."""

    name = "service_cold"
    # Three passes: the median of 21 requests is one real request of the
    # middle shape, not the mean of two.
    min_units = 3

    def setup(self) -> None:
        scale = self.ctx.scale
        self.rows = scale.cold_rows
        self.store = self.ctx.work / "cold-store"
        self.service = Service(
            bench_config(scale, self.rows, self.store, 2), workers=1
        )
        warmup = request_list(scale, self.ctx.seed, offset=-7)[-1]
        outcome = run_request(
            self.service.base, warmup, scale, self.rows, self.ctx.verifier
        )
        if outcome.error is not None:
            raise RuntimeError(f"warm-up request failed: {outcome.error}")

    def unit(self, index: int, span: SpanFn = no_span) -> list[Outcome]:
        scale = self.ctx.scale
        return [
            run_request(
                self.service.base, request, scale, self.rows,
                self.ctx.verifier, span,
            )
            for request in request_list(scale, self.ctx.seed, offset=7 * index)
        ]

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return max(own_peak_rss_mb(), children_peak_rss_mb())

    def close(self) -> None:
        self.service.close()


class ServiceWarm(Workload):
    """A fresh manager per round over a store filled in set-up; two
    clients split the request list.

    The manager must be fresh because the job id *is* the request's
    fingerprint: asking a live manager again is an in-memory dedup hit,
    not a replay from the store.
    """

    name = "service_warm"
    min_units = 3
    clients = 2

    def setup(self) -> None:
        scale = self.ctx.scale
        self.rows = scale.warm_rows
        self.store = self.ctx.work / "warm-store"
        self.digests: dict[str, str] = {}
        # Filled by a child process, so this process's resident set is
        # that of a server answering from the store, not of a sweep.
        subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--fill-store",
                str(self.store),
                "--seed",
                str(self.ctx.seed),
                *(["--smoke"] if scale.name == "smoke" else []),
            ],
            check=True,
            timeout=600,
            stdout=subprocess.DEVNULL,
        )
        failed = [o.error for o in self.unit(-1) if o.error is not None]
        if failed:
            raise RuntimeError(f"warm-up round failed: {failed[0]}")

    def unit(self, index: int, span: SpanFn = no_span) -> list[Outcome]:
        scale = self.ctx.scale
        requests = request_list(scale, self.ctx.seed)
        service = Service(
            bench_config(scale, self.rows, self.store, 0), workers=self.clients
        )
        results: list[list[Outcome]] = [[] for _ in range(self.clients)]

        def client(slot: int) -> None:
            for request in requests[slot :: self.clients]:
                results[slot].append(
                    run_request(
                        service.base, request, scale, self.rows,
                        self.ctx.verifier, span,
                    )
                )

        try:
            # The calling thread is the first client (a traced replay
            # has only that one); the others get a thread each.
            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(1, self.clients)
            ]
            for thread in threads:
                thread.start()
            client(0)
            for thread in threads:
                thread.join()
        finally:
            service.close()
        outcomes = [o for per_client in results for o in per_client]
        for outcome in outcomes:
            if outcome.error is None:
                outcome.error = self._check_warm(outcome)
        return outcomes

    def _check_warm(self, outcome: Outcome) -> str | None:
        detail = outcome.detail
        if detail["cache_hits"] != detail["cells"]:
            return (
                f"{outcome.kind}: {detail['cache_hits']} of "
                f"{detail['cells']} cells came from the store"
            )
        first = self.digests.setdefault(outcome.kind, detail["digest"])
        if first != detail["digest"]:
            return f"{outcome.kind}: map bytes differ between rounds"
        return None

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        return own_peak_rss_mb()


def fill_store(store: Path, scale: Scale, seed: int) -> None:
    """Measure the warm service's seven maps into ``store`` (set-up)."""
    from repro.bench.harness import BenchSession
    from repro.bench.requests import MapRequest

    session = BenchSession(bench_config(scale, scale.warm_rows, store, 2))
    for request in request_list(scale, seed):
        session.request_map(MapRequest.from_dict(request))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CliCold, CliWarm, ServiceCold, ServiceWarm)
}
