"""Map jobs: bounded execution of requests with single-flight dedup.

The :class:`JobManager` turns serializable
:class:`~repro.bench.requests.MapRequest` objects into *jobs*:

* **Content-addressed**: a job's id is its request's fingerprint
  (scenario + resolved config), so two submissions of the same map —
  concurrent or hours apart — are the *same* job.  The second submitter
  gets the first's job back (single-flight dedup: one sweep, shared
  result) instead of a duplicate computation.
* **Bounded**: a fixed worker-thread pool drains a bounded queue; when
  the queue is full, submission fails *loudly* with
  :class:`RejectedRequest` (the HTTP layer maps it to 429) instead of
  buffering unboundedly.  A per-request cell budget rejects maps whose
  grids are bigger than the operator allows — the same yardstick the
  adaptive refinement policy's ``max_cells`` uses.  Before anything is
  built, a request states its size (cells x plans, rows of its largest
  table, buffer-pool pages), and one over
  :data:`MAX_MEASUREMENTS`, :data:`MAX_TABLE_ROWS` or
  :data:`MAX_POOL_PAGES` is refused as a bad request
  (:class:`RequestTooLarge`, HTTP 400) that names the knob and the
  limit.
* **Observable**: each job consumes its sweep's
  :class:`~repro.core.progress.ProgressEvent` stream; cells-done,
  cell-store hits, and partial-map snapshots are readable mid-flight,
  and :meth:`JobManager.wait` blocks (with timeout) on completion.

Each job runs on its own :class:`~repro.bench.harness.BenchSession`
(systems are scale-dependent and not safely shared across concurrent
sweeps), which lives no longer than the sweep: a finished job keeps its
result, not its tables or its last snapshot (``GET /choice`` builds
System A again, at the first ask); :meth:`JobManager.close` hands the
pages those tables occupied back to the kernel.  Every session is handed the
manager's one :class:`~repro.core.cellstore.CellStore`: its shards are
read once per manager and tailed at the start of each sweep wave, so a
job sees what earlier jobs and other processes stored without re-reading
the rest.  A job answered from the store builds only what its store keys,
axes and meta read: System A alone unless its map runs all three
systems, and the columns its predicates and index-key checks read; no
tree and no oracle mask (see :class:`~repro.bench.harness.BenchSession`).
A client sees that a job measured no cell when its ``cache_hits`` equals
its ``total``.
"""

from __future__ import annotations

import ctypes
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.harness import BenchConfig, BenchSession, choice_maps_for
from repro.bench.requests import MapRequest, definition_for
from repro.core.cellstore import CellStore
from repro.core.choice import ChoiceMap
from repro.core.mapdata import MapData
from repro.core.progress import ProgressEvent, checked_snapshot_every
from repro.errors import ExperimentError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILES_META_KEY

logger = get_logger("service.jobs")


#: Submissions a manager queues beyond its running jobs, by default.
QUEUE_LIMIT = 8

#: The largest request a service admits: cells x plans of one map, rows
#: of its largest table, and buffer-pool pages.  The CLI is its
#: operator's own tool and keeps no such cap.
MAX_MEASUREMENTS = 1 << 16
MAX_TABLE_ROWS = 1 << 20
MAX_POOL_PAGES = 1 << 16


class RequestTooLarge(ExperimentError):
    """A request over the service's size limits: a bad request (HTTP
    400) naming the knob and the limit, never queued."""


class RejectedRequest(ExperimentError):
    """The service refused a request (queue full or over cell budget).

    Deliberately a *different* failure than a bad request: the map asked
    for is legitimate, the service just won't run it right now (HTTP
    429), whereas :class:`ExperimentError` from request resolution means
    the request itself is malformed (HTTP 400).
    """


@dataclass
class Job:
    """One map computation, addressed by its request fingerprint.

    Mutable fields are guarded by the owning manager's condition lock;
    readers go through :meth:`JobManager.status` /
    :meth:`JobManager.partial_map` rather than poking jobs directly.
    """

    job_id: str
    request: MapRequest
    state: str = "queued"  # queued | running | done | failed
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    done: int = 0
    total: int = 0
    cache_hits: int | None = None
    """Cells taken from the cell store so far, over every wave."""
    error: str | None = None
    result: MapData | None = None
    snapshot: MapData | None = None
    choices: dict[str, ChoiceMap] | None = None


_SENTINEL: Job | None = None


def _malloc_trim() -> Callable[[int], int] | None:
    """The C library's ``malloc_trim``, or None where it has none."""
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    malloc_trim.argtypes = (ctypes.c_size_t,)
    malloc_trim.restype = ctypes.c_int
    return malloc_trim


# Looked up once: every ``CDLL`` built leaves a small reference cycle
# (the library, its function-pointer type and the pointer) behind.
_MALLOC_TRIM = _malloc_trim()


def _release_freed_memory() -> None:
    """Hand the pages this process's freed heap holds back to the kernel.

    glibc keeps what a thread frees in that thread's malloc arena, and a
    thread started later may be given another arena: a process that opens
    managers one after another would otherwise hold one job's tables for
    every arena a job has ever run in, a number that depends on thread
    timing.  A no-op where the C library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class JobManager:
    """Bounded, deduplicating executor for map requests."""

    def __init__(
        self,
        config: BenchConfig | None = None,
        workers: int = 2,
        queue_limit: int = QUEUE_LIMIT,
        cell_budget: int | None = None,
        snapshot_every: int | None = 1,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"need at least one worker, got {workers}")
        if queue_limit < 1:
            raise ExperimentError(
                f"queue limit must be positive, got {queue_limit}"
            )
        self.config = config or BenchConfig()
        self.cell_budget = cell_budget
        self.snapshot_every = checked_snapshot_every(snapshot_every)
        # One store for every job: requests cannot override where it
        # lives (``BLOCKED_OVERRIDES``), so all sessions would open the
        # same directory anyway.
        self.cell_store = (
            CellStore(self.config.cell_cache_dir)
            if self.config.cell_cache_dir
            else None
        )
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        # Unbounded underneath: ``submit`` enforces the limit on jobs, so
        # the sentinels ``close`` puts never wait for a free slot.
        self._queue: queue.Queue = queue.Queue()
        self._queue_limit = queue_limit
        self._closed = False
        # Per-manager metrics plane (rendered by GET /metrics): tests and
        # embedded services share no counters.
        self.metrics = MetricsRegistry()
        self._m_submitted = self.metrics.counter(
            "repro_jobs_submitted_total",
            "Map requests accepted into a new job.",
        )
        self._m_deduped = self.metrics.counter(
            "repro_jobs_deduplicated_total",
            "Submissions answered by an existing job (single-flight fan-in).",
        )
        self._m_rejected = self.metrics.counter(
            "repro_jobs_rejected_total",
            "Submissions refused, by reason.",
        )
        self._m_completed = self.metrics.counter(
            "repro_jobs_completed_total",
            "Jobs finished, by terminal state.",
        )
        self._m_cell_hits = self.metrics.counter(
            "repro_cell_store_hits_total",
            "Sweep cells answered by the content-addressed cell store.",
        )
        self._m_cells_done = self.metrics.counter(
            "repro_cells_completed_total",
            "Sweep cells finished (measured or replayed) across all jobs.",
        )
        self._m_in_flight = self.metrics.gauge(
            "repro_jobs_in_flight",
            "Jobs currently running on the worker pool.",
        )
        self._m_latency = self.metrics.histogram(
            "repro_job_seconds",
            "Wall-clock seconds from job start to completion.",
        )
        # The gauge closes over the store, not ``self``: a registry that
        # reached back to its manager would keep both alive until the
        # cyclic garbage collector ran.
        store = self.cell_store
        self.metrics.gauge(
            "repro_cellstore_corrupt_lines_total",
            "Undecodable shard lines the cell store skipped since it was opened.",
        ).set_function(lambda: 0 if store is None else store.corrupt_lines)
        self.metrics.gauge(
            "repro_queue_depth",
            "Jobs waiting in the bounded submission queue.",
        ).set_function(self._queue.qsize)
        self.metrics.gauge(
            "repro_queue_limit",
            "Capacity of the bounded submission queue.",
        ).set(queue_limit)
        self.metrics.gauge(
            "repro_workers",
            "Worker threads draining the job queue.",
        ).set(workers)
        self._threads = [
            threading.Thread(
                target=self._worker, daemon=True, name=f"map-worker-{i}"
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def _required_cells(self, request: MapRequest) -> int:
        """Cells this request may measure (the budget yardstick), once
        its size is known to be within the service's limits.

        The size is stated before anything is built: cells x plans, rows
        of the largest table the map builds, and buffer-pool pages.
        Dense sweeps measure the whole grid; a refining request with an
        explicit ``refine_max_cells`` is capped by it, exactly as
        :class:`~repro.core.driver.AdaptiveRefinePolicy` will cap the
        sweep itself.
        """
        resolved = request.resolve(self.config)
        definition = definition_for(request.scenario)
        cells = definition.spec(resolved).n_cells
        if resolved.refine and resolved.refine_max_cells:
            cells = min(cells, resolved.refine_max_cells)
        measurements = cells * definition.plans
        rows = definition.table_rows(resolved)
        knobs = ", ".join(repr(knob) for knob in definition.grid_knobs)
        for over, what, limit in (
            (
                measurements > MAX_MEASUREMENTS,
                f"knobs {knobs} ask for {cells} cells x {definition.plans} "
                f"plans = {measurements} measurements",
                f"MAX_MEASUREMENTS = {MAX_MEASUREMENTS}",
            ),
            (
                rows > MAX_TABLE_ROWS,
                f"knob {definition.rows_knob!r} asks for a table of {rows} rows",
                f"MAX_TABLE_ROWS = {MAX_TABLE_ROWS}",
            ),
            (
                resolved.pool_pages > MAX_POOL_PAGES,
                f"knob 'pool_pages' asks for {resolved.pool_pages} pages",
                f"MAX_POOL_PAGES = {MAX_POOL_PAGES}",
            ),
        ):
            if over:
                raise RequestTooLarge(f"{what}, over the service limit {limit}")
        return cells

    def submit(self, request: MapRequest) -> tuple[Job, bool]:
        """Enqueue a request; returns ``(job, created)``.

        ``created`` is False on a single-flight hit: the fingerprint
        already has a live (queued/running) or finished job, which the
        caller shares.  Failed jobs are retried by resubmission.
        Raises :class:`ExperimentError` for malformed requests and
        requests over the size limits (:class:`RequestTooLarge`; both
        book nothing), and :class:`RejectedRequest` when bounded
        resources refuse the work.
        """
        cells = self._required_cells(request)  # also validates the request
        if self.cell_budget is not None and cells > self.cell_budget:
            self._m_rejected.inc(reason="cell_budget")
            raise RejectedRequest(
                f"request would measure {cells} cells, over the service "
                f"budget of {self.cell_budget}; shrink the grid or set "
                "refine with refine_max_cells"
            )
        job_id = request.fingerprint(self.config)
        with self._cond:
            if self._closed:
                self._m_rejected.inc(reason="shutting_down")
                raise RejectedRequest("service is shutting down")
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state != "failed":
                self._m_deduped.inc()
                return existing, False
            # Only submit puts jobs, under this lock: the check holds.
            if self._queue.qsize() >= self._queue_limit:
                self._m_rejected.inc(reason="queue_full")
                raise RejectedRequest(
                    f"job queue is full ({self._queue_limit} pending); "
                    "retry after running jobs finish"
                )
            job = Job(job_id=job_id, request=request, total=cells)
            self._jobs[job_id] = job
            self._queue.put_nowait(job)
            self._m_submitted.inc()
            self._cond.notify_all()
            return job, True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _on_progress(self, job: Job, event: ProgressEvent) -> None:
        with self._cond:
            # Running totals over the whole sweep: copied, never summed.
            job.done = event.done
            job.total = event.total
            job.cache_hits = event.cache_hits
            if event.snapshot is not None:
                job.snapshot = event.snapshot
            self._cond.notify_all()

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            assert job is not None
            with self._cond:
                job.state = "running"
                job.started = time.time()
                self._cond.notify_all()
            self._m_in_flight.inc()
            try:
                result = self._compute(job)
            except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
                self._finish(job, error=f"{type(exc).__name__}: {exc}")
                logger.warning(
                    "job %s failed: %s", job.job_id, job.error,
                    extra={"fields": {"job_id": job.job_id}},
                )
            else:
                self._finish(job, result=result)

    def _compute(self, job: Job) -> MapData:
        """Sweep one job's map on a session of its own.

        The session (tables included) is this call's local, so it is
        freed when the sweep returns and an idle worker holds none.
        """
        session = BenchSession(
            job.request.resolve(self.config),
            progress=lambda event: self._on_progress(job, event),
            snapshot_every=self.snapshot_every,
            cell_store=self.cell_store,
        )
        return session.request_map(MapRequest(job.request.scenario))

    def _finish(
        self, job: Job, result: MapData | None = None, error: str | None = None
    ) -> None:
        """Book a finished job's metrics, then publish its terminal state.

        In that order: a client woken by the state change may scrape
        ``/metrics`` at once and must find the job counted.
        """
        finished = time.time()
        state = "failed" if result is None else "done"
        # A refined job measured only part of its grid.
        measured = 0 if result is None else int(result.measured_mask.sum())
        with self._cond:
            elapsed = finished - (job.started or job.created)
            cell_hits = job.cache_hits
        self._m_in_flight.dec()
        self._m_completed.inc(state=state)
        self._m_latency.observe(max(0.0, elapsed))
        if result is not None:
            self._m_cells_done.inc(measured)
            if cell_hits:
                self._m_cell_hits.inc(cell_hits)
        with self._cond:
            if result is not None:
                job.result = result
                job.snapshot = None  # only read while there is no result
                job.done = measured
                job.total = result.times[0].size
            job.error = error
            job.state = state
            job.finished = finished
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job finishes (or the timeout passes)."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ExperimentError(f"unknown job {job_id!r}")
            self._cond.wait_for(
                lambda: job.state in ("done", "failed"), timeout=timeout
            )
            return job

    def status(self, job: Job) -> dict:
        """A JSON-shaped snapshot of a job's progress."""
        with self._cond:
            now = time.time()
            start = job.started if job.started is not None else job.created
            end = job.finished if job.finished is not None else now
            measured = None
            if job.result is not None:
                measured = job.done
            elif job.snapshot is not None:
                measured = int(job.snapshot.measured_mask.sum())
            return {
                "id": job.job_id,
                "request": job.request.to_dict(),
                "state": job.state,
                "done": job.done,
                "total": job.total,
                "measured_cells": measured,
                "coverage": (job.done / job.total) if job.total else None,
                "cache_hits": job.cache_hits,
                "elapsed": max(0.0, end - start),
                "error": job.error,
            }

    def profiles(self, job: Job) -> dict | None:
        """A finished job's per-cell execution profiles (None until done).

        The raw ``meta["profiles"]`` mapping (see :mod:`repro.obs.profile`);
        empty when the job ran without tracing (``trace`` knob off).
        """
        with self._cond:
            if job.result is None:
                return None
            return dict(job.result.meta.get(PROFILES_META_KEY, {}))

    def choice_maps(self, job: Job) -> dict[str, ChoiceMap] | None:
        """A finished estimation job's choice maps (None until done).

        Computed from the job's result at the first ask, over a System A
        built for the purpose, and kept on the job.  Two first asks at
        once both compute; the maps are equal.
        """
        with self._cond:
            result, choices = job.result, job.choices
        if result is not None and choices is None:
            config = job.request.resolve(self.config)
            (system_a,) = definition_for("estimation").factory(config)()
            choices = choice_maps_for(config, system_a, result)
            with self._cond:
                job.choices = choices
        return choices

    def partial_map(self, job: Job) -> tuple[MapData | None, bool]:
        """The freshest view of a job's map: ``(mapdata, partial)``.

        The finished result when done, else the latest progress snapshot
        (``partial=True``; only the cells in its ``measured_mask`` are
        real), else ``(None, True)`` when nothing has been measured yet.
        """
        with self._cond:
            if job.result is not None:
                return job.result, False
            return job.snapshot, True

    def stats(self) -> dict:
        with self._cond:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "queued": self._queue.qsize(),
                "queue_limit": self._queue_limit,
                "workers": len(self._threads),
                "cell_budget": self.cell_budget,
                "config_fingerprint": self.config.fingerprint(),
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and wind the workers down.

        A job still queued ends ``failed`` with the words ``submit``
        refuses with; a running one is left to finish.  Returns within
        ``timeout`` even if one never does: the workers are daemons.
        Last, it hands the memory the workers' jobs freed back to the
        kernel (:func:`_release_freed_memory`).
        """
        finished = time.time()
        with self._cond:
            self._closed = True
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                # An earlier close's sentinel, not yet taken.
                if job is _SENTINEL:
                    continue
                job.error = "service is shutting down"
                job.state = "failed"
                job.finished = finished
                self._m_completed.inc(state="failed")
            for _ in self._threads:
                self._queue.put_nowait(_SENTINEL)
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        _release_freed_memory()
