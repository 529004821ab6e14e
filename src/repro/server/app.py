"""The HTTP/SSE serving layer: remote submission over the JobManager.

A :class:`SimulationServer` is a dependency-free (stdlib
``http.server``) front end over the process-wide
:class:`~repro.sim.jobs.JobManager`: remote callers submit
:class:`~repro.sim.backends.base.SimulationRequest` payloads encoded in
the :mod:`repro.server.wire` schema, and the server executes them
through exactly the pipeline local callers use — resolve -> cache ->
shard -> run -> store — so a remote submission with a fixed seed
returns outcomes identical to in-process :func:`repro.sim.simulate`.

Routes (all JSON unless noted)::

    GET    /v1/health              liveness probe
    GET    /v1/backends            registry coverage, decline reasons, auto picks
    GET    /v1/stats               server, job, cache, and metric counters
    GET    /v1/metrics             Prometheus text exposition (text/plain)
    POST   /v1/jobs                submit a request; 429 over --max-jobs;
                                   "wait": S inlines the result if done by then
    GET    /v1/jobs                recent jobs (live + ledger records)
    GET    /v1/jobs/{id}           status; falls back to the JSON ledger
    GET    /v1/jobs/{id}/result    full result; ?wait=S long-polls
    GET    /v1/jobs/{id}/events    SSE: shard completions + progress
    GET    /v1/jobs/{id}/trace     recorded trace (raw span payloads)
    DELETE /v1/jobs/{id}           request cancellation
    POST   /v1/sweeps              submit a grid sweep (server-compiled)
    GET    /v1/sweeps/{id}         sweep progress + completed rows
    GET    /v1/sweeps/{id}/events  SSE: rows as grid points complete
    DELETE /v1/sweeps/{id}         cancel a sweep

The SSE stream (``text/event-stream``) emits one ``progress`` event on
connect, one ``shard`` event per completed trial shard — payload =
:func:`~repro.server.wire.shard_to_wire` plus a progress snapshot —
and a terminal ``done``/``failed``/``cancelled`` event, each with a
monotonically increasing ``id:`` field, so a consumer sees every shard
of a multi-shard job in landing order.  Streams come straight from
:meth:`SimulationJob.iter_results`, so cache-served shards stream too.
A consumer whose connection dropped reconnects with the standard
``Last-Event-ID`` header and the server skips everything already
delivered — event ids are stable across connections because the job
replays its emitted shards deterministically.

Submissions may carry an ``idempotency_key`` (a client-chosen opaque
string); resubmitting the same key returns the original unit's status
instead of admitting a duplicate, which is what lets
:class:`~repro.server.client.RemoteClient` retry a POST whose
connection dropped after the server may have admitted it.

Sweep submissions carry a request *template* plus a parameter grid and
are compiled server-side onto the existing
:class:`~repro.sim.runner.SweepJob` path: each grid point overrides
template fields (request- or algorithm-level), and the sweep preserves
the ``derive_seed(seed, *seed_keys, point, trial)`` addressing, so
remote sweep rows equal local :meth:`Sweep.run` rows.

A submission may also carry ``"wait": S`` (seconds, capped at
``_MAX_RESULT_WAIT``): when the job is done within that time the 201
status payload carries the full result under ``"result"``, so a
blocking remote ``simulate()`` is one HTTP exchange; otherwise the
answer is the plain 201 and the caller long-polls ``/result``.

Admission control is intentionally simple: at most ``max_jobs``
non-terminal server-submitted jobs at a time; beyond that ``POST
/v1/jobs`` answers ``429 Too Many Requests`` with a ``Retry-After``
header, and :class:`~repro.server.client.RemoteClient` backs off and
resubmits.  Admission counts a live set pruned as units finish, so its
cost does not grow with the server's history.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Set, Union
from urllib.parse import parse_qs, urlparse

from repro.errors import InvalidParameterError, JobCancelledError, ReproError
from repro.obs.metrics import get_registry, render_prometheus
from repro.obs.trace import (
    find_trace_for_job,
    parse_traceparent,
    span,
    spans_for_trace,
)
from repro.sim.backends.base import SimulationRequest
from repro.sim.backends.registry import AUTO
from repro.sim.cache import get_cache
from repro.resilience.faults import maybe_inject
from repro.sim.jobs import (
    TERMINAL_STATES,
    JobManager,
    JobState,
    SimulationJob,
    effective_state,
    find_job_record,
    get_manager,
    oldest_finished,
    read_job_records,
)
from repro.sim.runner import SimulationTrial, Sweep, SweepJob
from repro.server import wire
from repro.server.wire import WIRE_VERSION, WireError

#: Seconds a rejected submitter is told to wait before retrying.
RETRY_AFTER_SECONDS = 1

#: Cap on tracked job/sweep handles; oldest terminal ones are evicted.
#: Status lookups still answer: jobs from their JSON ledger records,
#: sweeps from the retained final status payloads.
_MAX_TRACKED = 1024

#: Longest single long-poll on the result route (and longest ``wait``
#: on a submission), whatever the client asks for — bounds how long one
#: handler thread can be parked.
_MAX_RESULT_WAIT = 60.0

_JOB_ROUTE = re.compile(
    r"^/v1/jobs/([A-Za-z0-9_.-]+)(/events|/result|/trace)?$"
)
_SWEEP_ROUTE = re.compile(r"^/v1/sweeps/([A-Za-z0-9_.-]+)(/events)?$")

# Per-route HTTP metrics.  Labels use the route *pattern* (ids
# collapsed to {id}), so series cardinality is bounded by the route
# table however many jobs a server handles.
_REGISTRY = get_registry()
_HTTP_REQUESTS = _REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests handled, by route pattern, method, and status.",
    ["route", "method", "status"],
)
_HTTP_SECONDS = _REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by route pattern (SSE streams count "
    "their full stream lifetime, a submission with wait its wait).",
    ["route"],
)


def _route_label(path: str) -> str:
    """Collapse a request path to its route pattern for metric labels."""
    match = _JOB_ROUTE.match(path)
    if match is not None:
        return f"/v1/jobs/{{id}}{match.group(2) or ''}"
    match = _SWEEP_ROUTE.match(path)
    if match is not None:
        return f"/v1/sweeps/{{id}}{match.group(2) or ''}"
    if path in (
        "/v1/health", "/v1/backends", "/v1/stats", "/v1/metrics",
        "/v1/jobs", "/v1/sweeps",
    ):
        return path
    return "other"

#: Request-level fields a sweep grid point may override on the template.
_SWEEP_REQUEST_FIELDS = frozenset(
    {"n_agents", "target", "move_budget", "step_budget", "distance_bound"}
)
#: Algorithm-level fields a grid point may override.
_SWEEP_ALGORITHM_FIELDS = frozenset({"distance", "ell", "K", "max_phase"})


def default_max_workers() -> int:
    """Default per-job ``workers`` cap: the host's cores, floor 8.

    The floor keeps modest sharding available on small hosts — shards
    are also the streaming granularity, not just parallelism — while
    still bounding what one remote request can pin.
    """
    return max(8, os.cpu_count() or 1)


def _clamp_workers(workers: int, cap: int) -> int:
    """Bound a remote ``workers`` request to the server's cap.

    The manager's worker pool grows to the largest ``workers`` ever
    requested and never shrinks, so an uncapped remote value would let
    one request pin hundreds of OS processes for the server's
    lifetime.  Admission control bounds concurrent jobs; this bounds
    what each job may ask for.
    """
    if workers < 1:
        raise WireError(f"workers must be >= 1, got {workers}")
    return min(workers, cap)


class _HTTPFailure(ReproError):
    """Internal: abort the current request with this status + payload."""

    def __init__(
        self, status: int, message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _wait_seconds(value: Any) -> Optional[float]:
    """A client's ``wait``: ``None``, or a finite number of seconds >= 0.

    NaN must not pass: ``min(nan, cap)`` is NaN, and a NaN timeout
    parks the handler thread past the cap.
    """
    seconds = wire.opt_float(value, "wait")
    if seconds is not None and not (math.isfinite(seconds) and seconds >= 0):
        raise WireError(f"wait must be a finite number >= 0, got {seconds}")
    return seconds


def _sweep_factory(template: SimulationRequest):
    """A :class:`SimulationTrial` factory applying grid-point overrides.

    The returned callable maps one grid point's parameter dict onto the
    wire template: request-level keys replace request fields,
    algorithm-level keys replace spec fields.  Unknown keys fail the
    submission with 400 rather than being silently dropped.
    """

    def factory(params: Mapping[str, object]) -> SimulationRequest:
        request_kwargs: Dict[str, Any] = {}
        algorithm_kwargs: Dict[str, Any] = {}
        for key, value in params.items():
            if key in _SWEEP_REQUEST_FIELDS:
                # Same strictness as the /v1/jobs request decoder: a
                # non-integer override is a 400, not a 500 from deep
                # inside validation (or a late backend crash).
                if key == "target":
                    value = wire.point(value, "grid.target")
                elif key in ("step_budget", "distance_bound"):
                    value = wire.opt_int(value, f"grid.{key}")
                else:
                    value = wire.req_int(value, f"grid.{key}")
                request_kwargs[key] = value
            elif key in _SWEEP_ALGORITHM_FIELDS:
                algorithm_kwargs[key] = wire.opt_int(value, f"grid.{key}")
            else:
                raise WireError(
                    f"unknown sweep grid key {key!r}; request fields: "
                    f"{sorted(_SWEEP_REQUEST_FIELDS)}, algorithm fields: "
                    f"{sorted(_SWEEP_ALGORITHM_FIELDS)}"
                )
        spec = template.algorithm
        if algorithm_kwargs:
            spec = replace(spec, **algorithm_kwargs)
        return replace(template, algorithm=spec, **request_kwargs)

    return factory


class SimulationServer:
    """HTTP + SSE front end over one process's :class:`JobManager`.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` — what the tests and benchmarks do).
    max_jobs:
        Concurrency limit: the maximum number of non-terminal
        server-submitted units (a job is one unit, a sweep is one
        unit).  Submissions beyond it receive 429 with ``Retry-After``
        so well-behaved clients back off.
    manager:
        The job manager to execute on; defaults to the process-wide one
        so server-side jobs share the cache, ledger, and worker pool
        with any in-process callers.
    max_workers_per_job:
        Cap on the ``workers`` value any one submission may request
        (the pool never shrinks, so this bounds what a remote caller
        can pin).  Defaults to :func:`default_max_workers`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        max_jobs: int = 8,
        manager: Optional[JobManager] = None,
        max_workers_per_job: Optional[int] = None,
    ) -> None:
        if max_jobs < 1:
            raise InvalidParameterError(f"max_jobs must be >= 1, got {max_jobs}")
        self._manager = manager if manager is not None else get_manager()
        self.max_jobs = max_jobs
        self.max_workers_per_job = (
            max_workers_per_job
            if max_workers_per_job is not None
            else default_max_workers()
        )
        if self.max_workers_per_job < 1:
            raise InvalidParameterError(
                f"max_workers_per_job must be >= 1, "
                f"got {self.max_workers_per_job}"
            )
        self._lock = threading.Lock()
        # Serializes admission + submission only, so a slow submit
        # (first-call ledger prune, backend resolution) never blocks
        # the cheap routes that touch `_lock` for a counter bump.
        self._submit_lock = threading.Lock()
        self._jobs: "OrderedDict[str, SimulationJob]" = OrderedDict()
        self._sweeps: "OrderedDict[str, SweepJob]" = OrderedDict()
        # Admission units not yet seen finished (job and sweep ids never
        # collide); _active_units prunes it, so admission asks done()
        # of live units only, not of the whole tracked history.
        self._live: Dict[str, Union[SimulationJob, SweepJob]] = {}
        # Open client connections, shut down on close() so idle
        # keep-alive handlers do not hold the server open.
        self._connections: Set[socket.socket] = set()
        # Final status payloads of evicted sweeps (rows are small
        # aggregates); the sweep-side analogue of the jobs ledger.
        self._sweep_records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # Idempotency-key -> unit id, so a client retrying a POST whose
        # connection dropped after admission gets the already-submitted
        # unit back instead of a duplicate.  Bounded like the handle
        # maps; a key evicted here means a *very* stale retry, which at
        # worst resubmits (and the result cache absorbs the rerun).
        self._job_keys: "OrderedDict[str, str]" = OrderedDict()
        self._sweep_keys: "OrderedDict[str, str]" = OrderedDict()
        self._sweep_counter = 0
        self._started_at = time.time()
        self._requests_total = 0
        self._jobs_submitted = 0
        self._sweeps_submitted = 0
        self._rejected_429 = 0
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        # Set once serving begins (start() or serve_forever(), which
        # the CLI calls on its own thread): socketserver's shutdown()
        # waits for serve_forever() to exit, so before it ran it would
        # block forever.
        self._serving = False

    # -- lifecycle -------------------------------------------------------

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SimulationServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._serve_thread is None:
            self._serving = True
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-server",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close`."""
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting connections and release the socket.

        Open keep-alive connections are shut down too, so their idle
        handler threads exit at once instead of at their read timeout.
        A server that never served just releases its socket.
        """
        if self._serving:
            self._httpd.shutdown()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def __enter__(self) -> "SimulationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- bookkeeping -----------------------------------------------------

    def _count_request(self) -> None:
        with self._lock:
            self._requests_total += 1

    def _track_connection(
        self, connection: socket.socket, opened: bool
    ) -> None:
        with self._lock:
            if opened:
                self._connections.add(connection)
            else:
                self._connections.discard(connection)

    def _active_units(self) -> int:
        """Admission units in flight: live jobs plus live sweeps.

        A sweep counts as one unit however many grid points it holds —
        its children run through the manager with the sweep's own
        worker window, so one unit is what it occupies.  Called with
        ``_lock`` held; drops the units it finds done from the live set.
        """
        for unit_id in [k for k, unit in self._live.items() if unit.done()]:
            del self._live[unit_id]
        return len(self._live)

    def _evict_tracked(self) -> None:
        """Bound the handle maps; called with ``_lock`` held.

        Evicted jobs keep answering from the JSON ledger; evicted
        sweeps leave their final status payload behind in
        ``_sweep_records`` (rows are small aggregates, unlike job
        outcomes), so finished work never flips to 404.
        """
        if len(self._jobs) > _MAX_TRACKED:
            overflow = len(self._jobs) - _MAX_TRACKED
            for key in oldest_finished(self._jobs, overflow):
                del self._jobs[key]
        if len(self._sweeps) > _MAX_TRACKED:
            overflow = len(self._sweeps) - _MAX_TRACKED
            for key in oldest_finished(self._sweeps, overflow):
                self._sweep_records[key] = self._sweep_status_payload(
                    key, self._sweeps[key]
                )
                del self._sweeps[key]
        while len(self._sweep_records) > _MAX_TRACKED:
            self._sweep_records.popitem(last=False)

    def _admit(self, submit, record, existing=None):
        """Admission-controlled submission shared by jobs and sweeps.

        ``submit()`` produces the handle; ``record(handle)`` registers
        it under the state lock and returns the response id.  The
        dedicated submission lock keeps the capacity bound exact under
        concurrent submitters while `_lock` is only pinned for the
        dict/counter touches, so introspection routes never stall
        behind a slow submit.

        ``existing()`` (optional) is the idempotency probe: evaluated
        under the submission lock *before* the capacity check, so a
        retried POST that matches an already-admitted unit returns its
        id — never consuming capacity, never double-submitting, even
        against a concurrent first attempt.
        """
        with self._submit_lock:
            if existing is not None:
                duplicate = existing()
                if duplicate is not None:
                    return duplicate, True
            with self._lock:
                if self._active_units() >= self.max_jobs:
                    self._rejected_429 += 1
                    raise _HTTPFailure(
                        429,
                        f"at capacity: {self.max_jobs} jobs already running",
                        headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
                    )
            handle = submit()
            with self._lock:
                identifier = record(handle)
                self._live[identifier] = handle
                self._evict_tracked()
        return identifier, False

    def get_job(self, job_id: str) -> Optional[SimulationJob]:
        """A live handle for ``job_id``: server-tracked, then manager."""
        with self._lock:
            job = self._jobs.get(job_id)
        return job if job is not None else self._manager.get(job_id)

    def get_sweep(self, sweep_id: str) -> Optional[SweepJob]:
        """The tracked sweep handle, if any."""
        with self._lock:
            return self._sweeps.get(sweep_id)

    # -- operations (called by the handler) ------------------------------

    @staticmethod
    def _idempotency_key(payload: Mapping[str, Any]) -> Optional[str]:
        key = payload.get("idempotency_key")
        if key is None:
            return None
        if not isinstance(key, str) or not key:
            raise WireError("idempotency_key must be a non-empty string")
        return key

    def submit_job(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Admit and submit one job; raises 429 when at capacity.

        A payload carrying an ``idempotency_key`` the server has seen
        before answers with the original job's status (marked
        ``"idempotent_replay": true``) instead of submitting again —
        the contract that makes client-side POST retries safe.
        """
        idempotency_key = self._idempotency_key(payload)
        request = wire.request_from_wire(payload.get("request"))
        backend = payload.get("backend", AUTO)
        if not isinstance(backend, str):
            raise WireError("backend must be a string")
        workers = _clamp_workers(
            wire.req_int(payload.get("workers", 1), "workers"),
            self.max_workers_per_job,
        )
        cache = payload.get("cache")
        if cache is not None and not isinstance(cache, bool):
            raise WireError("cache must be true, false, or null")
        use_plan = payload.get("plan", False)
        if not isinstance(use_plan, bool):
            raise WireError("plan must be true or false")
        wait = _wait_seconds(payload.get("wait"))
        plan = None
        if use_plan:
            # Resolve the backend and shard layout up front and echo
            # them; ``workers`` becomes the plan's shard cap.
            from repro.sim.selector import plan_request

            plan = plan_request(request, backend=backend, workers=workers)
            backend, workers = plan.backend, plan.workers

        def record(job: SimulationJob) -> str:
            self._jobs[job.job_id] = job
            self._jobs_submitted += 1
            if idempotency_key is not None:
                self._job_keys[idempotency_key] = job.job_id
                while len(self._job_keys) > _MAX_TRACKED:
                    self._job_keys.popitem(last=False)
            return job.job_id

        def existing() -> Optional[str]:
            if idempotency_key is None:
                return None
            return self._job_keys.get(idempotency_key)

        job_id, replayed = self._admit(
            lambda: self._manager.submit(
                request, backend=backend, workers=workers, cache=cache,
            ),
            record,
            existing=existing,
        )
        result = None if wait is None else self._finished_result(job_id, wait)
        status = self.job_status(job_id)
        if replayed:
            status["idempotent_replay"] = True
        elif plan is not None:
            status["plan"] = wire.plan_to_wire(plan)
        if result is not None:
            status["result"] = result
        return status

    def _finished_result(
        self, job_id: str, wait: float
    ) -> Optional[Dict[str, Any]]:
        """The wire result if the job is done within ``wait`` seconds.

        ``None`` when it is still running, cancelled or failed: the
        submitter then asks ``/result``, which reports which.
        """
        job = self.get_job(job_id)
        if job is None:
            return None
        try:
            result = job.result(timeout=min(wait, _MAX_RESULT_WAIT))
        except Exception:  # noqa: BLE001 — /result maps the failure
            return None
        return wire.result_to_wire(result)

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """Status of one job: live progress, or the ledger record.

        Finished jobs evicted from the in-process registry still
        answer — their JSON ledger record is the fallback — so remote
        pollers never see a completed job flip to 404.
        """
        job = self.get_job(job_id)
        if job is not None:
            progress = job.progress()
            error = job.exception()
            return {
                "wire": WIRE_VERSION,
                "job_id": job_id,
                "state": progress.state.value,
                "backend": job.backend,
                "algorithm": job.request.algorithm.name,
                "n_trials": job.request.n_trials,
                "progress": wire.progress_to_wire(progress),
                "error": None if error is None else str(error),
                "source": "live",
            }
        record = find_job_record(job_id)
        if record is None:
            raise _HTTPFailure(404, f"unknown job {job_id!r}")
        # effective_state: a record claiming pending/running whose
        # writing process is dead reports failed-recoverable instead of
        # posing as live forever.
        state = effective_state(record)
        return {
            "wire": WIRE_VERSION,
            "job_id": job_id,
            "state": state,
            "backend": record.get("backend"),
            "algorithm": record.get("algorithm"),
            "n_trials": record.get("n_trials"),
            # Same shape as the live branch's progress_to_wire payload
            # — a client reading one key must not break on eviction.
            "progress": {
                "state": state,
                "total_shards": record.get("total_shards"),
                "done_shards": record.get("done_shards"),
                "total_trials": record.get("n_trials"),
                "done_trials": record.get("done_trials"),
                "cached_shards": record.get("cached_shards"),
                "fraction": (
                    record["done_trials"] / record["n_trials"]
                    if isinstance(record.get("done_trials"), int)
                    and isinstance(record.get("n_trials"), int)
                    and record["n_trials"] > 0
                    else None
                ),
            },
            "error": record.get("error"),
            "source": "ledger",
        }

    def list_jobs(self) -> Dict[str, Any]:
        """Every known job: live server-tracked handles + ledger records."""
        with self._lock:
            live = {job_id: job for job_id, job in self._jobs.items()}
        entries: Dict[str, Dict[str, Any]] = {}
        for record in read_job_records():
            entries[record["job_id"]] = {
                "job_id": record["job_id"],
                "state": effective_state(record),
                "algorithm": record.get("algorithm"),
                "backend": record.get("backend"),
                "n_trials": record.get("n_trials"),
                "submitted_at": record.get("submitted_at"),
                "source": "ledger",
            }
        for job_id, job in live.items():
            progress = job.progress()
            entries[job_id] = {
                "job_id": job_id,
                "state": progress.state.value,
                "algorithm": job.request.algorithm.name,
                "backend": job.backend,
                "n_trials": job.request.n_trials,
                "submitted_at": job._submitted_at,
                "source": "live",
            }
        jobs = sorted(
            entries.values(),
            key=lambda entry: entry.get("submitted_at") or 0,
            reverse=True,
        )
        return {"wire": WIRE_VERSION, "jobs": jobs}

    def job_result(self, job_id: str, wait: float) -> Dict[str, Any]:
        """The full result, long-polling up to ``wait`` seconds.

        202 while still running (the client loops), 410 for cancelled,
        500 for failed — each with the state in the body.
        """
        job = self.get_job(job_id)
        if job is None:
            record = find_job_record(job_id)
            if record is None:
                raise _HTTPFailure(404, f"unknown job {job_id!r}")
            # The record knows the fate but the outcomes left this
            # process's memory; the submitter should resubmit (the
            # result cache makes that free).  409, not 410 — the
            # client maps 410 to "cancelled", and an evicted job most
            # likely completed fine.
            raise _HTTPFailure(
                409,
                f"job {job_id!r} is {record.get('state')} but its outcomes "
                f"are no longer held by the server; resubmit the request "
                f"(the result cache serves it without resimulation)",
            )
        try:
            result = job.result(timeout=min(wait, _MAX_RESULT_WAIT))
        except TimeoutError:
            raise _HTTPFailure(
                202, f"job {job_id!r} still {job.state.value}"
            ) from None
        except JobCancelledError as error:
            raise _HTTPFailure(410, str(error)) from None
        except BaseException as error:  # noqa: BLE001 — surfaced to client
            raise _HTTPFailure(
                500, f"job {job_id!r} failed: {error}"
            ) from None
        return wire.result_to_wire(result)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation of one job."""
        job = self.get_job(job_id)
        if job is None:
            if find_job_record(job_id) is None:
                raise _HTTPFailure(404, f"unknown job {job_id!r}")
            raise _HTTPFailure(409, f"job {job_id!r} is not running here")
        accepted = job.cancel()
        return {
            "wire": WIRE_VERSION,
            "job_id": job_id,
            "cancelled": accepted,
            "state": job.state.value,
        }

    def submit_sweep(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Compile and submit a sweep onto the :class:`SweepJob` path.

        Honors ``idempotency_key`` exactly like :meth:`submit_job`.
        """
        idempotency_key = self._idempotency_key(payload)
        template = wire.request_from_wire(payload.get("template"))
        grid = payload.get("grid")
        if not isinstance(grid, list) or not all(
            isinstance(point, dict) for point in grid
        ):
            raise WireError("grid must be an array of parameter objects")
        trials = wire.req_int(payload.get("trials", 1), "trials")
        seed = wire.req_int(payload.get("seed", 0), "seed")
        seed_keys = payload.get("seed_keys", [])
        if not isinstance(seed_keys, list):
            raise WireError("seed_keys must be an array of integers")
        backend = payload.get("backend", AUTO)
        if not isinstance(backend, str):
            raise WireError("backend must be a string")
        workers = _clamp_workers(
            wire.req_int(payload.get("workers", 1), "workers"),
            self.max_workers_per_job,
        )
        cache = payload.get("cache")
        if cache is not None and not isinstance(cache, bool):
            raise WireError("cache must be true, false, or null")
        trial = SimulationTrial(
            factory=_sweep_factory(template), backend=backend, cache=cache
        )
        sweep = Sweep(
            trial,
            grid=grid,
            trials=trials,
            seed=seed,
            workers=workers,
            seed_keys=tuple(
                wire.req_int(key, "seed_keys[]") for key in seed_keys
            ),
        )
        def record(handle: SweepJob) -> str:
            self._sweep_counter += 1
            sweep_id = f"sweep-{self._sweep_counter:06d}"
            self._sweeps[sweep_id] = handle
            self._sweeps_submitted += 1
            if idempotency_key is not None:
                self._sweep_keys[idempotency_key] = sweep_id
                while len(self._sweep_keys) > _MAX_TRACKED:
                    self._sweep_keys.popitem(last=False)
            return sweep_id

        def existing() -> Optional[str]:
            if idempotency_key is None:
                return None
            return self._sweep_keys.get(idempotency_key)

        # Sweep.submit() compiles the grid synchronously (applying
        # every factory), so a bad override 400s the submission here
        # rather than failing the background driver.
        sweep_id, replayed = self._admit(
            lambda: sweep.submit(manager=self._manager), record,
            existing=existing,
        )
        status = self.sweep_status(sweep_id)
        if replayed:
            status["idempotent_replay"] = True
        return status

    def _sweep_rows(self, handle: SweepJob) -> List[Dict[str, Any]]:
        return [
            self._row_to_wire(index, row)
            for index, row in handle.completed_rows()
        ]

    @staticmethod
    def _row_to_wire(index: int, row) -> Dict[str, Any]:
        return {
            "point_index": index,
            "params": dict(row.params),
            "estimate": asdict(row.estimate),
            "extras": dict(row.extras),
        }

    def _sweep_status_payload(
        self, sweep_id: str, handle: SweepJob
    ) -> Dict[str, Any]:
        progress = handle.progress()
        return {
            "wire": WIRE_VERSION,
            "sweep_id": sweep_id,
            "state": progress.state.value,
            "progress": {
                "state": progress.state.value,
                "total_points": progress.total_points,
                "done_points": progress.done_points,
                "total_trials": progress.total_trials,
                "done_trials": progress.done_trials,
                "fraction": progress.fraction,
            },
            "rows": self._sweep_rows(handle),
        }

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        """Progress plus every completed row of one sweep.

        Sweeps evicted from the handle map answer from their retained
        final status payload, mirroring the jobs ledger fallback.
        """
        handle = self.get_sweep(sweep_id)
        if handle is not None:
            return self._sweep_status_payload(sweep_id, handle)
        with self._lock:
            retained = self._sweep_records.get(sweep_id)
        if retained is None:
            raise _HTTPFailure(404, f"unknown sweep {sweep_id!r}")
        return retained

    def cancel_sweep(self, sweep_id: str) -> Dict[str, Any]:
        """Cancel one sweep (completed points stay cached)."""
        handle = self.get_sweep(sweep_id)
        if handle is None:
            raise _HTTPFailure(404, f"unknown sweep {sweep_id!r}")
        accepted = handle.cancel()
        return {
            "wire": WIRE_VERSION,
            "sweep_id": sweep_id,
            "cancelled": accepted,
            "state": handle.state.value,
        }

    def backends_payload(self) -> Dict[str, Any]:
        """Registry coverage, declines, auto-resolution and selector plans.

        Delegates to the shared introspection builder so this payload
        and ``repro-ants backends --json`` can never drift apart; the
        ``selector`` section adds the planned execution per family.
        """
        from repro.sim.backends.registry import backends_introspection
        from repro.sim.selector import selector_payload

        return {
            "wire": WIRE_VERSION,
            **backends_introspection(),
            "selector": selector_payload(),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """Server counters + job states + the cache's counters."""
        with self._lock:
            tracked = list(self._jobs.values())
            sweeps = list(self._sweeps.values())
            payload = {
                "wire": WIRE_VERSION,
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "max_jobs": self.max_jobs,
                "requests_total": self._requests_total,
                "jobs_submitted": self._jobs_submitted,
                "sweeps_submitted": self._sweeps_submitted,
                "rejected_429": self._rejected_429,
            }
        states = {state.value: 0 for state in JobState}
        for job in tracked:
            states[job.state.value] += 1
        payload["jobs_by_state"] = states
        payload["jobs_active"] = sum(
            count
            for state, count in states.items()
            if JobState(state) not in TERMINAL_STATES
        )
        payload["sweeps_active"] = sum(
            1 for sweep in sweeps if not sweep.done()
        )
        # What admission actually compares against max_jobs: an
        # operator debugging 429s sees the consumed capacity even when
        # it is all sweeps.
        payload["units_active"] = (
            payload["jobs_active"] + payload["sweeps_active"]
        )
        payload["cache"] = get_cache().info().to_payload()
        payload["metrics"] = get_registry().to_payload()
        return payload

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """The recorded trace of one job, raw span payloads.

        Served from this process's span ring and the JSONL sink under
        the cache directory — which is also where pool-worker shard
        spans land, so a multi-shard job's trace is complete here.
        """
        trace_id = find_trace_for_job(job_id)
        if trace_id is None:
            raise _HTTPFailure(
                404,
                f"no trace recorded for job {job_id!r} (tracing off, span "
                f"evicted from the ring, or unknown job)",
            )
        return wire.trace_to_wire(
            job_id, trace_id,
            [sp.to_payload() for sp in spans_for_trace(trace_id)],
        )


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP verbs + paths onto :class:`SimulationServer` operations."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-ants"
    #: TCP_NODELAY: a response goes out as two writes (headers, then
    #: body), and with Nagle's algorithm on a keep-alive connection the
    #: body waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    #: Socket timeout: a client that stalls mid-body (or an idle
    #: keep-alive connection) releases its handler thread instead of
    #: parking it forever.  Long-poll waits park in job.result(), not
    #: in socket reads, so they are unaffected.
    timeout = 30

    # Handler threads are per-connection (ThreadingHTTPServer); all
    # shared state lives in the app object behind its lock.

    @property
    def app(self) -> SimulationServer:
        return self.server.app  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.app._track_connection(self.connection, True)

    def finish(self) -> None:
        self.app._track_connection(self.connection, False)
        super().finish()

    def log_message(self, format: str, *args: object) -> None:
        # Quiet by default — the CLI serve command is the only place
        # meant for human eyes, and per-request logging would swamp it.
        pass

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        # Remember the status line for the per-route metrics; every
        # response path funnels through here.
        self._last_status = code
        super().send_response(code, message)

    # -- plumbing --------------------------------------------------------

    def _drain_body(self) -> None:
        """Consume any unread request body.

        On a keep-alive connection the next request is framed right
        after this one's body; an error response sent before
        `_read_body()` ran would otherwise leave those bytes in
        ``rfile`` to be misparsed as the next request line.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        try:
            remaining = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._drain_body()
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, failure: _HTTPFailure) -> None:
        self._send_json(
            failure.status,
            {"wire": WIRE_VERSION, "error": str(failure)},
            headers=failure.headers,
        )

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        self._drain_body()
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _read_body(self) -> Mapping[str, Any]:
        self._body_consumed = True
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _HTTPFailure(400, "request body required")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HTTPFailure(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise _HTTPFailure(400, "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        self.app._count_request()
        # Per-request state (the handler instance survives across
        # requests on one keep-alive connection).
        self._body_consumed = False
        self._last_status = 0
        parsed = urlparse(self.path)
        route = _route_label(parsed.path)
        # Spans are opened for submissions and for any request carrying
        # a traceparent (the client wants stitching); health probes and
        # bare pollers stay span-free so they cannot flood the ring.
        # Metrics cover every route regardless.
        context = parse_traceparent(self.headers.get("traceparent"))
        traced = context is not None or (
            method == "POST" and parsed.path in ("/v1/jobs", "/v1/sweeps")
        )
        opened = (
            span("server.request", context=context, route=route, method=method)
            if traced
            else contextlib.nullcontext(None)
        )
        start = time.perf_counter()
        try:
            with opened as sp:
                try:
                    self._route(method, parsed.path, parse_qs(parsed.query))
                except _HTTPFailure as failure:
                    self._send_error_json(failure)
                except WireError as error:
                    self._send_error_json(_HTTPFailure(400, str(error)))
                except ReproError as error:
                    # Validation errors from request/backends: 400s.
                    self._send_error_json(_HTTPFailure(400, str(error)))
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True
                except Exception as error:  # noqa: BLE001 — last-resort 500
                    try:
                        self._send_error_json(
                            _HTTPFailure(500, f"internal error: {error}")
                        )
                    except OSError:
                        self.close_connection = True
                if sp is not None:
                    sp.set_attribute("status_code", self._last_status)
                    if self._last_status >= 500:
                        sp.set_status("error")
        finally:
            _HTTP_REQUESTS.inc(
                route=route, method=method, status=str(self._last_status)
            )
            _HTTP_SECONDS.observe(time.perf_counter() - start, route=route)

    do_GET = lambda self: self._dispatch("GET")  # noqa: E731
    do_POST = lambda self: self._dispatch("POST")  # noqa: E731
    do_DELETE = lambda self: self._dispatch("DELETE")  # noqa: E731

    # -- routing ---------------------------------------------------------

    def _route(
        self, method: str, path: str, query: Dict[str, List[str]]
    ) -> None:
        app = self.app
        if method == "GET" and path == "/v1/health":
            self._send_json(200, {"wire": WIRE_VERSION, "status": "ok"})
            return
        if method == "GET" and path == "/v1/backends":
            self._send_json(200, app.backends_payload())
            return
        if method == "GET" and path == "/v1/stats":
            self._send_json(200, app.stats_payload())
            return
        if method == "GET" and path == "/v1/metrics":
            self._send_text(
                200,
                render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/v1/jobs":
            if method == "POST":
                self._send_json(201, app.submit_job(self._read_body()))
                return
            if method == "GET":
                self._send_json(200, app.list_jobs())
                return
        match = _JOB_ROUTE.match(path)
        if match is not None:
            job_id, suffix = match.group(1), match.group(2)
            if method == "GET" and suffix == "/events":
                self._stream_job_events(job_id)
                return
            if method == "GET" and suffix == "/result":
                try:
                    wait = float((query.get("wait") or ["0"])[0])
                except ValueError:
                    raise _HTTPFailure(400, "wait must be a number") from None
                self._send_json(
                    200, app.job_result(job_id, _wait_seconds(wait))
                )
                return
            if method == "GET" and suffix == "/trace":
                self._send_json(200, app.job_trace(job_id))
                return
            if method == "GET" and suffix is None:
                self._send_json(200, app.job_status(job_id))
                return
            if method == "DELETE" and suffix is None:
                self._send_json(200, app.cancel_job(job_id))
                return
        if path == "/v1/sweeps" and method == "POST":
            self._send_json(201, app.submit_sweep(self._read_body()))
            return
        match = _SWEEP_ROUTE.match(path)
        if match is not None:
            sweep_id, suffix = match.group(1), match.group(2)
            if method == "GET" and suffix == "/events":
                self._stream_sweep_events(sweep_id)
                return
            if method == "GET" and suffix is None:
                self._send_json(200, app.sweep_status(sweep_id))
                return
            if method == "DELETE" and suffix is None:
                self._send_json(200, app.cancel_sweep(sweep_id))
                return
        raise _HTTPFailure(404, f"no route for {method} {path}")

    # -- SSE -------------------------------------------------------------

    def _start_event_stream(self) -> None:
        self._drain_body()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        # No Content-Length: the stream ends when the job does, and the
        # connection closes with it.
        self.close_connection = True

    def _last_event_id(self) -> int:
        """The ``Last-Event-ID`` header, or ``-1`` (send everything).

        A reconnecting SSE consumer sends the id of the last event it
        processed; since job streams replay deterministically from the
        start (``iter_results`` re-yields every emitted shard in
        landing order, with stable sequence ids), skipping events with
        ``id <= Last-Event-ID`` resumes the stream exactly where the
        dropped connection left it — no duplicates, no gaps.
        """
        value = self.headers.get("Last-Event-ID")
        if value is None:
            return -1
        try:
            return int(value)
        except ValueError:
            return -1

    def _send_event(
        self, event_id: int, event: str, data: Mapping[str, Any]
    ) -> None:
        if event_id <= self._resume_after:
            return  # already delivered on a previous connection
        # The chaos seam: a "reset" rule here severs the stream
        # mid-flight (before the event is written), exactly like a
        # dropped socket — what the Last-Event-ID resume tests exercise.
        maybe_inject("server.sse", event_index=event_id, kind=event)
        chunk = (
            f"id: {event_id}\n"
            f"event: {event}\n"
            f"data: {json.dumps(data)}\n\n"
        )
        self.wfile.write(chunk.encode("utf-8"))
        self.wfile.flush()

    def _stream_job_events(self, job_id: str) -> None:
        """SSE: shard-level progress and incremental results of one job."""
        job = self.app.get_job(job_id)
        if job is None:
            raise _HTTPFailure(404, f"unknown or no longer live job {job_id!r}")
        self._resume_after = self._last_event_id()
        self._start_event_stream()
        sequence = 0
        try:
            self._send_event(
                sequence, "progress", wire.progress_to_wire(job.progress())
            )
            try:
                for shard in job.iter_results():
                    sequence += 1
                    payload = wire.shard_to_wire(shard)
                    payload["progress"] = wire.progress_to_wire(job.progress())
                    self._send_event(sequence, "shard", payload)
                sequence += 1
                self._send_event(
                    sequence, "done", wire.progress_to_wire(job.progress())
                )
            except (BrokenPipeError, ConnectionResetError):
                # Transport failure while *writing*, not the job's own
                # error — fall through to the outer handler so a
                # dropped consumer is never reported as a failed job.
                raise
            except JobCancelledError as error:
                sequence += 1
                self._send_event(sequence, "cancelled", {"error": str(error)})
            except Exception as error:  # noqa: BLE001 — job's own failure
                sequence += 1
                self._send_event(sequence, "failed", {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # consumer went away; the job keeps running

    def _stream_sweep_events(self, sweep_id: str) -> None:
        """SSE: one ``row`` event per completed grid point, in grid order."""
        handle = self.app.get_sweep(sweep_id)
        if handle is None:
            raise _HTTPFailure(404, f"unknown sweep {sweep_id!r}")
        self._resume_after = self._last_event_id()
        self._start_event_stream()
        sequence = 0
        try:
            try:
                for index, row in handle.iter_rows():
                    sequence += 1
                    self._send_event(
                        sequence, "row", SimulationServer._row_to_wire(index, row)
                    )
                sequence += 1
                self._send_event(sequence, "done", {"state": "done"})
            except (BrokenPipeError, ConnectionResetError):
                raise  # transport failure, not the sweep's own error
            except JobCancelledError as error:
                sequence += 1
                self._send_event(sequence, "cancelled", {"error": str(error)})
            except Exception as error:  # noqa: BLE001 — sweep's own failure
                sequence += 1
                self._send_event(sequence, "failed", {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            pass
