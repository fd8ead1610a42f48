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
  adaptive refinement policy's ``max_cells`` uses.
* **Observable**: each job consumes its sweep's
  :class:`~repro.core.progress.ProgressEvent` stream; cells-done,
  cell-store hits, and partial-map snapshots are readable mid-flight,
  and :meth:`JobManager.wait` blocks (with timeout) on completion.

Each job runs on its own :class:`~repro.bench.harness.BenchSession`
(systems are scale-dependent and not safely shared across concurrent
sweeps), which lives no longer than the sweep: a finished job keeps its
result, not its tables or its last snapshot (``GET /choice`` builds
System A again, at the first ask).  Every session is handed the
manager's one :class:`~repro.core.cellstore.CellStore`: its shards are
read once per manager and tailed at the start of each sweep wave, so a
job sees what earlier jobs and other processes stored without re-reading
the rest.
Jobs also share the whole-map cache directory — a repeated request after
a restart is a disk-cache hit, observable as ``cache_hit`` (the sweep
emitted zero progress events).  A job answered from either cache sorts
no secondary index: its session lays out the clustered tables for the
budget yardstick and nothing else.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

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
    events: int = 0
    cache_hits: int | None = None
    """Cells taken from the cell store so far, over every wave."""
    cache_hit: bool = False
    error: str | None = None
    result: MapData | None = None
    snapshot: MapData | None = None
    choices: dict[str, ChoiceMap] | None = None


_SENTINEL: Job | None = None


class JobManager:
    """Bounded, deduplicating executor for map requests."""

    def __init__(
        self,
        config: BenchConfig | None = None,
        workers: int = 2,
        queue_limit: int = 8,
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
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
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
        self._m_map_cache_hits = self.metrics.counter(
            "repro_jobs_map_cache_hits_total",
            "Jobs answered by the whole-map disk cache (no sweep ran).",
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
        self.metrics.gauge(
            "repro_cellstore_corrupt_lines_total",
            "Undecodable shard lines the cell store skipped since it was opened.",
        ).set_function(
            lambda: 0 if self.cell_store is None else self.cell_store.corrupt_lines
        )
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
        """Cells this request may measure (the budget yardstick).

        Dense sweeps measure the whole grid; a refining request with an
        explicit ``refine_max_cells`` is capped by it, exactly as
        :class:`~repro.core.driver.AdaptiveRefinePolicy` will cap the
        sweep itself.
        """
        resolved = request.resolve(self.config)
        cells = definition_for(request.scenario).spec(resolved).n_cells
        if resolved.refine and resolved.refine_max_cells:
            cells = min(cells, resolved.refine_max_cells)
        return cells

    def submit(self, request: MapRequest) -> tuple[Job, bool]:
        """Enqueue a request; returns ``(job, created)``.

        ``created`` is False on a single-flight hit: the fingerprint
        already has a live (queued/running) or finished job, which the
        caller shares.  Failed jobs are retried by resubmission.
        Raises :class:`ExperimentError` for malformed requests and
        :class:`RejectedRequest` when bounded resources refuse the work.
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
            job = Job(job_id=job_id, request=request, total=cells)
            self._jobs[job_id] = job
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                # Restore the books exactly as they were, then refuse.
                if existing is not None:
                    self._jobs[job_id] = existing
                else:
                    del self._jobs[job_id]
                self._m_rejected.inc(reason="queue_full")
                raise RejectedRequest(
                    f"job queue is full ({self._queue.maxsize} pending); "
                    "retry after running jobs finish"
                ) from None
            self._m_submitted.inc()
            self._cond.notify_all()
            return job, True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _on_progress(self, job: Job, event: ProgressEvent) -> None:
        with self._cond:
            job.events += 1
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
            # Zero progress events means no sweep ran: the map came
            # straight out of the whole-map disk cache.
            cache_hit = result is not None and job.events == 0
        self._m_in_flight.dec()
        self._m_completed.inc(state=state)
        self._m_latency.observe(max(0.0, elapsed))
        if result is not None:
            self._m_cells_done.inc(measured)
            if cell_hits:
                self._m_cell_hits.inc(cell_hits)
            if cache_hit:
                self._m_map_cache_hits.inc()
        with self._cond:
            if result is not None:
                job.result = result
                job.snapshot = None  # only read while there is no result
                job.done = measured
                job.total = result.times[0].size
                job.cache_hit = cache_hit
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
                "cache_hit": job.cache_hit,
                "elapsed": max(0.0, end - start),
                "error": job.error,
            }

    def profiles(self, job: Job) -> dict | None:
        """A finished job's per-cell execution profiles (None until done).

        The raw ``meta["profiles"]`` mapping (see :mod:`repro.obs.profile`);
        empty when the job ran without tracing (``trace`` knob off) or
        the map came from the whole-map disk cache, which never stores
        profiles.
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
                "queue_limit": self._queue.maxsize,
                "workers": len(self._threads),
                "cell_budget": self.cell_budget,
                "config_fingerprint": self.config.fingerprint(),
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and wind the workers down."""
        with self._cond:
            self._closed = True
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout=timeout)
