"""Stdlib HTTP front-end for the map service.

A thin, dependency-free (``http.server``) JSON API over
:class:`~repro.service.jobs.JobManager`:

* ``GET  /``                    — service info + endpoint listing.
* ``GET  /healthz``             — liveness.
* ``GET  /scenarios``           — the request registry: names, grid
  shapes and cell counts under the service's base config, and the
  overridable knobs with their defaults.
* ``GET  /stats``               — job/queue/cache counters.
* ``GET  /metrics``             — the manager's metrics plane in the
  Prometheus text format (queue depth, in-flight jobs, dedup fan-in,
  rejections by reason, cache hit counters, job latency histogram).
* ``POST /maps``                — submit a map request
  (``{"scenario": ..., "overrides": {...}}``).  Always answers 202 with
  the job id; ``"created": false`` marks a single-flight/duplicate hit.
  Malformed requests and requests over the service's size limits
  (:class:`~repro.service.jobs.RequestTooLarge`) get 400, resource
  refusals (queue full, over the cell budget) get 429.
* ``GET  /jobs/<id>``           — job status; ``?wait=<seconds>``
  long-polls for completion.
* ``GET  /jobs/<id>/partial``   — status + the freshest map view: the
  finished map, or a partial snapshot whose ``meta["cells"]`` /
  ``measured_cells`` say exactly which cells are real.
* ``GET  /jobs/<id>/result``    — the finished map (409 while running,
  500 when the job failed).
* ``GET  /jobs/<id>/choice``    — choice/regret maps per optimizer
  policy (estimation-scenario jobs only).
* ``GET  /jobs/<id>/profile``   — the finished job's per-cell execution
  profiles; ``?format=chrome`` exports Chrome trace-event JSON
  (viewable at ui.perfetto.dev).  Empty unless the job ran with the
  ``trace`` knob (or ``REPRO_TRACE``) on.
* ``GET  /jobs/<id>/render/<plan>.svg|.png`` — the finished map rendered
  by the viz layer (heat map for 2-D, curves for 1-D).

Every route that needs the finished map answers like ``/result``: 409
while the job runs, 500 with its error once it failed.

Serving threads come from :class:`ThreadingHTTPServer`; computation
stays on the manager's bounded worker pool, so slow sweeps never block
status polls.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from dataclasses import fields

from repro.bench.requests import (
    BLOCKED_OVERRIDES,
    MAP_DEFINITIONS,
    BenchConfig,
    MapRequest,
)
from repro.core.mapdata import MapData
from repro.errors import ExperimentError, VisualizationError
from repro.obs.logs import get_logger, setup_logging
from repro.obs.profile import CellProfile, chrome_trace
from repro.service.jobs import Job, JobManager, RejectedRequest
from repro.viz.render import render_map

logger = get_logger("service.http")

MAX_BODY_BYTES = 1 << 20
"""Request bodies past 1 MiB are refused (map requests are tiny)."""


def _scenario_listing(config: BenchConfig) -> dict:
    knobs = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in BLOCKED_OVERRIDES
    }
    return {
        "scenarios": [
            {
                "name": definition.name,
                "description": definition.description,
                "grid_shape": list(definition.spec(config).grid_shape),
                "n_cells": definition.spec(config).n_cells,
            }
            for definition in MAP_DEFINITIONS.values()
        ],
        "knobs": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in knobs.items()
        },
    }


def _map_payload(status: dict, mapdata: MapData | None, partial: bool) -> dict:
    """A job's status beside the freshest view of its map (None: no cell yet)."""
    measured = [] if mapdata is None else [int(c) for c in mapdata.filled_cells]
    return {
        "job": status,
        "partial": partial,
        "measured_cells": measured if partial else None,
        "map": None if mapdata is None else mapdata.to_dict(),
    }


class MapServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto its server's :class:`JobManager`.

    The manager is read through ``self.server`` (a :class:`MapServer`),
    never from the class, so no class keeps a manager alive.
    """

    server: MapServer
    server_version = "repro-map-service/1.0"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            logger.info("%s %s", self.address_string(), format % args)

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_bytes(
            code, "application/json", json.dumps(payload).encode("utf-8")
        )

    def _send_bytes(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # Refused unread: rfile.read(-1) would wait for the client
            # to hang up.
            raise ExperimentError(f"bad Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise ExperimentError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ExperimentError("request needs a JSON body")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"invalid JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise ExperimentError("request body must be a JSON object")
        return data

    def _job_or_404(self, job_id: str) -> Job | None:
        job = self.server.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        return job

    def _not_finished(self, job: Job) -> None:
        """The route needs the finished map: a failed job's error (500),
        else a 409 saying where to poll."""
        if job.state == "failed":
            self._error(500, job.error or "job failed")
            return
        self._error(
            409, f"job {job.job_id!r} is {job.state}; poll /jobs/{job.job_id}"
        )

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        split = urlsplit(self.path)
        parts = [unquote(part) for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        try:
            if not parts:
                self._send_json(
                    200,
                    {
                        "service": "robustness-map service",
                        "endpoints": [
                            "GET /healthz",
                            "GET /scenarios",
                            "GET /stats",
                            "GET /metrics",
                            "POST /maps",
                            "GET /jobs/<id>[?wait=seconds]",
                            "GET /jobs/<id>/partial",
                            "GET /jobs/<id>/result",
                            "GET /jobs/<id>/choice",
                            "GET /jobs/<id>/profile[?format=chrome]",
                            "GET /jobs/<id>/render/<plan>.svg|.png",
                        ],
                    },
                )
            elif parts == ["healthz"]:
                self._send_json(200, {"ok": True})
            elif parts == ["scenarios"]:
                listing = _scenario_listing(self.server.manager.config)
                self._send_json(200, listing)
            elif parts == ["stats"]:
                self._send_json(200, self.server.manager.stats())
            elif parts == ["metrics"]:
                self._send_bytes(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    self.server.manager.metrics.render().encode("utf-8"),
                )
            elif parts[0] == "jobs" and len(parts) >= 2:
                self._get_job(parts[1], parts[2:], query)
            else:
                self._error(404, f"no route for {split.path!r}")
        except ConnectionError:  # the client hung up (reset or closed)
            pass

    def _get_job(self, job_id: str, rest: list[str], query: dict) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        if not rest:
            waits = query.get("wait")
            if waits:
                try:
                    timeout = min(60.0, max(0.0, float(waits[0])))
                except ValueError:
                    self._error(400, f"bad wait value {waits[0]!r}")
                    return
                self.server.manager.wait(job_id, timeout=timeout)
            self._send_json(200, self.server.manager.status(job))
            return
        if rest == ["partial"]:
            status = self.server.manager.status(job)
            view = self.server.manager.partial_map(job)
            self._send_json(200, _map_payload(status, *view))
            return
        if rest == ["result"]:
            if job.result is None:
                self._not_finished(job)
            else:
                status = self.server.manager.status(job)
                self._send_json(200, _map_payload(status, job.result, False))
            return
        if rest == ["choice"]:
            self._get_choice(job)
            return
        if rest == ["profile"]:
            self._get_profile(job, query)
            return
        if len(rest) == 2 and rest[0] == "render":
            self._get_render(job, rest[1])
            return
        self._error(404, f"no route for jobs/{job_id}/{'/'.join(rest)}")

    def _get_choice(self, job: Job) -> None:
        if job.request.scenario != "estimation":
            self._error(
                400,
                "choice maps exist only for the estimation scenario, "
                f"not {job.request.scenario!r}",
            )
            return
        choices = self.server.manager.choice_maps(job)
        if choices is None:
            self._not_finished(job)
            return
        self._send_json(
            200,
            {
                "job": self.server.manager.status(job),
                "policies": {
                    name: choice.to_dict() for name, choice in choices.items()
                },
            },
        )

    def _get_profile(self, job: Job, query: dict) -> None:
        profiles = self.server.manager.profiles(job)
        if profiles is None:
            self._not_finished(job)
            return
        fmt = (query.get("format") or ["raw"])[0]
        if fmt == "chrome":
            trace = chrome_trace(
                CellProfile.from_dict(data) for data in profiles.values()
            )
            self._send_json(200, trace)
            return
        if fmt != "raw":
            self._error(400, f"unknown profile format {fmt!r} (raw|chrome)")
            return
        self._send_json(
            200,
            {
                "job": self.server.manager.status(job),
                "profiles": profiles,
                "traced": bool(profiles),
            },
        )

    def _get_render(self, job: Job, leaf: str) -> None:
        if job.result is None:
            self._not_finished(job)
            return
        plan_id, _, fmt = leaf.rpartition(".")
        if not plan_id:
            self._error(400, "render path must be <plan>.svg or <plan>.png")
            return
        if plan_id not in job.result.plan_ids:
            self._error(
                404, f"unknown plan {plan_id!r}; map has {job.result.plan_ids}"
            )
            return
        try:
            content_type, body = render_map(job.result, plan_id, fmt)
        except VisualizationError as exc:
            self._error(400, str(exc))
            return
        self._send_bytes(200, content_type, body)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        try:
            self._post()
        except ConnectionError:  # the client hung up; a submitted job runs on
            pass

    def _post(self) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        if parts != ["maps"]:
            self._error(404, f"no POST route for {split.path!r}")
            return
        try:
            request = MapRequest.from_dict(self._read_body())
            job, created = self.server.manager.submit(request)
        except RejectedRequest as exc:
            self._error(429, str(exc))
        except ExperimentError as exc:
            self._error(400, str(exc))
        else:
            self._send_json(
                202,
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "created": created,
                    "poll": f"/jobs/{job.job_id}",
                },
            )


class MapServer(ThreadingHTTPServer):
    """A threading HTTP server that carries its manager and log switch.

    Each server holds its own bindings, so concurrent servers (tests)
    share nothing, and a server and its manager form no reference cycle:
    dropping both frees the manager, its store index and its finished
    maps at once, without waiting for the cyclic garbage collector.
    """

    def __init__(
        self, address: tuple[str, int], manager: JobManager, quiet: bool
    ) -> None:
        self.manager = manager
        self.quiet = quiet
        super().__init__(address, MapServiceHandler)


def build_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> MapServer:
    """An HTTP server bound to a manager (port 0: ephemeral).

    The manager and ``quiet`` live on the server instance, where every
    handler reads them.  Once the caller has closed both
    (``server_close`` joins the request threads) and dropped them, the
    manager is freed.
    """
    return MapServer((host, port), manager, quiet)


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8642,
    quiet: bool = False,
) -> None:
    """Run the map service until interrupted (the CLI's ``serve``)."""
    setup_logging()
    server = build_server(manager, host=host, port=port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    logger.info(
        "map service listening on http://%s:%s", bound_host, bound_port
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        manager.close()
