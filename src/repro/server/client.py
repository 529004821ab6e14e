"""``RemoteClient`` — the ``simulate()`` facade over HTTP.

A dependency-free (stdlib ``http.client``) client for
:class:`~repro.server.app.SimulationServer` mirroring the in-process
facade: :meth:`RemoteClient.simulate` blocks for a full
:class:`~repro.sim.backends.base.SimulationResult`,
:meth:`RemoteClient.simulate_async` returns a :class:`RemoteJob`
handle with the same surface as a local
:class:`~repro.sim.jobs.SimulationJob` — ``iter_results()`` streams
shard completions over SSE, ``result()`` long-polls, ``progress()``
snapshots, ``cancel()`` requests cancellation.

JSON calls reuse one keep-alive connection per calling thread, and
:meth:`RemoteClient.simulate` is one exchange when the job finishes
within the submission's ``wait`` (the server then answers the ``POST``
with the result inline); otherwise it long-polls ``/result``.  A kept
connection the server closed while idle is resent once, silently, on a
fresh socket.  SSE streams and ``/v1/metrics`` open a short-lived
connection of their own.

Because the wire schema round-trips requests exactly (seeds included)
and the server executes through the same job pipeline, a remote
``simulate(request)`` on a per-trial backend returns outcomes
**identical** to the local call — the property the integration tests
pin down over a real socket.

Transient failures are retried with exponential backoff: a ``429 Too
Many Requests`` honors the server's ``Retry-After`` header (the
concurrency-limit path), and connection errors (server still booting,
blip) back off geometrically up to ``max_attempts``.  Submissions
carry client-generated idempotency keys, so even POSTs retry safely —
a resubmission after a dropped connection replays the already-admitted
job instead of duplicating it — and SSE consumers resume dropped
streams with ``Last-Event-ID`` instead of raising.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import uuid
from urllib.parse import urlsplit
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import InvalidParameterError, JobCancelledError, ReproError
from repro.obs.metrics import get_registry
from repro.obs.trace import current_context, span, traceparent_header
from repro.resilience.faults import maybe_inject
from repro.sim.backends.base import SimulationRequest, SimulationResult
from repro.sim.backends.registry import AUTO
from repro.sim.jobs import JobState, ShardResult
from repro.server import wire
from repro.server.wire import WIRE_VERSION

#: Per-request socket timeout nothing else overrides.
_DEFAULT_TIMEOUT = 30.0

#: How long one result long-poll (or a blocking submission) asks the
#: server to wait.
_RESULT_WAIT = 30.0

#: Socket timeout margin over a server-side park, so the parked answer
#: (a 202 or a result-less 201 at t = wait) always beats the client's
#: own read timeout.
_WAIT_MARGIN = 15.0

_REGISTRY = get_registry()
_RETRIES_TOTAL = _REGISTRY.counter(
    "repro_client_retries_total",
    "Remote client retries absorbed by backoff, by kind.",
    ["kind"],
)
_RETRY_AFTER_SECONDS = _REGISTRY.gauge(
    "repro_client_last_retry_after_seconds",
    "Most recent Retry-After the server sent on a 429 rejection.",
)
# Shared with the job layer's shard retries (same metric, different
# layer label) — one counter tells the whole resilience-retry story.
_LAYER_RETRIES = _REGISTRY.counter(
    "repro_retries_total",
    "Retries performed by the resilience machinery, by layer "
    "(shard: pool shard re-execution; client: HTTP re-request).",
    ["layer"],
)

#: SSE events that end a job/sweep stream; a stream that stops without
#: one of these was dropped mid-flight and is resumed via Last-Event-ID.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class RemoteServerError(ReproError):
    """The server answered with an error status (or never answered)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


def _iter_sse(stream) -> Iterator[Tuple[str, Dict[str, Any], Optional[str]]]:
    """Parse a ``text/event-stream`` body into (event, data, id) tuples."""
    event: Optional[str] = None
    event_id: Optional[str] = None
    data_lines: List[str] = []
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:
            if data_lines:
                yield (
                    event or "message",
                    json.loads("\n".join(data_lines)),
                    event_id,
                )
            event, event_id, data_lines = None, None, []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        value = value.removeprefix(" ")
        if field == "event":
            event = value
        elif field == "data":
            data_lines.append(value)
        elif field == "id":
            event_id = value


class RemoteClient:
    """Talk to one :class:`~repro.server.app.SimulationServer`.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the server.
    timeout:
        Socket timeout per request (SSE streams are exempt — they stay
        open for the job's lifetime).
    max_attempts:
        Total tries per logical request before giving up.
    backoff_seconds / backoff_cap:
        Geometric backoff for connection errors; 429 responses use the
        server's ``Retry-After`` instead (clamped to the cap).
    sleep:
        Injection point for the tests; defaults to :func:`time.sleep`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = _DEFAULT_TIMEOUT,
        max_attempts: int = 8,
        backoff_seconds: float = 0.2,
        backoff_cap: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise InvalidParameterError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self._host, self._port = parts.hostname, parts.port
        self._prefix = parts.path
        # One keep-alive connection per calling thread.
        self._local = threading.local()
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._backoff = backoff_seconds
        self._backoff_cap = backoff_cap
        self._sleep = sleep
        #: Diagnostics: how many 429 rejections / connection errors /
        #: dropped SSE streams this client has absorbed by backing off.
        self.retries_429 = 0
        self.retries_connect = 0
        self.retries_stream = 0

    # -- transport -------------------------------------------------------

    def _connection(
        self, timeout: Optional[float]
    ) -> http.client.HTTPConnection:
        """This thread's keep-alive connection, its socket timeout set."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self._host, self._port)
            self._local.connection = connection
        connection.timeout = timeout  # applies at the next connect
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        return connection

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
        timeout: Optional[float],
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """One request and its read body over this thread's connection."""
        connection = self._connection(timeout)
        reused = connection.sock is not None
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response, response.read()
        except BaseException as error:
            connection.close()
            if reused and isinstance(error, ConnectionError):
                # The server closed this idle socket (its handler's
                # read timeout): resend once on a fresh one, which is
                # not reused, so this never recurses twice.
                return self._exchange(method, path, body, headers, timeout)
            raise

    def _short_lived(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
        timeout: Optional[float],
    ) -> Tuple[http.client.HTTPResponse, None]:
        """One request on a connection of its own; the response unread.

        ``Connection: close`` makes the response own the socket, which
        closes with it.
        """
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout
        )
        try:
            connection.request(
                method, path, body=body,
                headers={**headers, "Connection": "close"},
            )
            return connection.getresponse(), None
        except BaseException:
            connection.close()
            raise

    def close(self) -> None:
        """Close the calling thread's keep-alive connection (if any)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]],
        keep_alive: bool,
        timeout: Optional[float],
        retry: bool = True,
        idempotent: bool = False,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[http.client.HTTPResponse, Optional[bytes]]:
        """One HTTP exchange with backoff -> ``(response, body)``.

        ``keep_alive=True`` runs it on this thread's keep-alive
        connection and ``body`` is the read response body; otherwise
        it opens a short-lived connection and hands back the live
        response unread (``body`` is ``None``).  ``timeout`` is the
        socket timeout (``None``: none).

        Retry policy: a 429 is always safe to retry (the server
        rejected before admitting).  Connection errors are retried for
        idempotent methods — GET/DELETE always, and POSTs only when
        ``idempotent=True``, i.e. the payload carries an
        ``idempotency_key`` the server dedups on, so a resubmission of
        a POST whose connection dropped after admission replays the
        original unit instead of duplicating it.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        attempts = self._max_attempts if retry else 1
        retry_connect = retry and (
            idempotent or method in ("GET", "DELETE")
        )
        last_error: Optional[BaseException] = None
        headers = {"Content-Type": "application/json"}
        for name, value in (extra_headers or {}).items():
            headers[name] = value
        # Propagate the ambient span (if any) as a W3C traceparent so
        # the server parents its request/job spans under ours and the
        # stitched trace crosses the process boundary.
        if current_context() is not None:
            headers["traceparent"] = traceparent_header()
        send = self._exchange if keep_alive else self._short_lived
        for attempt in range(attempts):
            try:
                # The chaos seam: a "reset" rule here simulates the
                # connection dropping before (or while) the request is
                # on the wire — the case idempotency keys make safe.
                maybe_inject(
                    "client.http", method=method, path=path, attempt=attempt
                )
                response, data = send(
                    method, self._prefix + path, body, headers, timeout
                )
            except (OSError, http.client.HTTPException) as error:
                last_error = error
                if retry_connect and attempt + 1 < attempts:
                    self.retries_connect += 1
                    _RETRIES_TOTAL.inc(kind="connect")
                    _LAYER_RETRIES.inc(layer="client")
                    self._sleep(
                        min(self._backoff * 2**attempt, self._backoff_cap)
                    )
                    continue
                break
            if 200 <= response.status < 300:
                return response, data
            if data is None:
                with response:
                    data = response.read()
            if response.status == 429 and attempt + 1 < attempts:
                # The server is at --max-jobs capacity; honor its
                # Retry-After, with a floor of the geometric backoff
                # so a herd of clients still spreads out.
                retry_after = self._retry_after(response)
                self.retries_429 += 1
                _RETRIES_TOTAL.inc(kind="429")
                _RETRY_AFTER_SECONDS.set(retry_after)
                self._sleep(
                    min(
                        max(retry_after, self._backoff * 2**attempt),
                        self._backoff_cap,
                    )
                )
                continue
            raise RemoteServerError(
                f"{method} {path} -> {response.status}: "
                f"{self._error_detail(response, data)}",
                status=response.status,
            )
        raise RemoteServerError(
            f"{method} {path} failed after "
            f"{attempt + 1} attempt(s): {last_error}"
        )

    def _open(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        stream: bool = False,
        timeout: Optional[float] = None,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> http.client.HTTPResponse:
        """One exchange on a short-lived connection; the open response.

        ``stream=True`` disables the socket timeout (SSE streams stay
        open for the job's lifetime); otherwise ``timeout`` overrides
        the client default.
        """
        response, _ = self._request(
            method, path, payload, keep_alive=False,
            timeout=None if stream else timeout or self._timeout,
            extra_headers=extra_headers,
        )
        return response

    @staticmethod
    def _retry_after(response: http.client.HTTPResponse) -> float:
        try:
            return float(response.headers.get("Retry-After", "0"))
        except (TypeError, ValueError):
            return 0.0

    @staticmethod
    def _error_detail(response: http.client.HTTPResponse, data: bytes) -> str:
        try:
            payload = json.loads(data)
            return str(payload.get("error", payload))
        except (AttributeError, ValueError):
            return response.reason or "error"

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        retry: bool = True,
        timeout: Optional[float] = None,
        idempotent: bool = False,
    ) -> Tuple[int, Dict[str, Any]]:
        """JSON request over the keep-alive connection -> (status, body).

        ``timeout`` overrides the client default for this exchange (a
        long-poll must outlast its own ``wait``).
        """
        response, data = self._request(
            method, path, payload, keep_alive=True,
            timeout=timeout or self._timeout, retry=retry,
            idempotent=idempotent,
        )
        return response.status, json.loads(data or b"{}")

    def _stream_events(
        self, path: str
    ) -> Iterator[Tuple[str, Dict[str, Any], Optional[str]]]:
        """SSE events from ``path``, resuming across dropped streams.

        Tracks the last delivered event id; when the stream stops
        before a terminal event (severed socket, server blip), the
        client reconnects with the standard ``Last-Event-ID`` header
        and the server skips everything already delivered — the
        consumer sees one seamless, duplicate-free sequence.  Resumes
        are bounded by ``max_attempts``; a stream that keeps dying
        raises :class:`RemoteServerError` so truncated results are
        never mistaken for success.
        """
        last_id: Optional[str] = None
        resumes = 0
        while True:
            headers = {} if last_id is None else {"Last-Event-ID": last_id}
            response = self._open(
                "GET", path, stream=True, extra_headers=headers
            )
            try:
                with response:
                    for event, data, event_id in _iter_sse(response):
                        if event_id is not None:
                            last_id = event_id
                        yield event, data, event_id
                        if event in _TERMINAL_EVENTS:
                            return
            except (http.client.HTTPException, OSError):
                pass  # dropped mid-stream; fall through to resume
            resumes += 1
            if resumes >= self._max_attempts:
                raise RemoteServerError(
                    f"event stream {path} ended before a terminal event "
                    f"after {resumes} resume attempt(s); results may be "
                    f"incomplete"
                )
            self.retries_stream += 1
            _RETRIES_TOTAL.inc(kind="sse_resume")
            _LAYER_RETRIES.inc(layer="client")
            self._sleep(
                min(self._backoff * 2 ** (resumes - 1), self._backoff_cap)
            )

    # -- the facade mirror -----------------------------------------------

    def simulate(
        self,
        request: SimulationRequest,
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
    ) -> SimulationResult:
        """Execute remotely and block for the result.

        Mirrors :func:`repro.sim.simulate`: same parameters, same
        outcome values for a fixed seed on per-trial backends.  The
        submission asks the server to wait for the result, so a job
        that finishes within :data:`_RESULT_WAIT` costs one exchange.
        """
        with span(
            "client.simulate",
            algorithm=request.algorithm.name,
            n_trials=request.n_trials,
        ):
            return self.submit(
                request, backend=backend, workers=workers, cache=cache,
                wait=_RESULT_WAIT,
            ).result()

    def simulate_async(
        self,
        request: SimulationRequest,
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
    ) -> "RemoteJob":
        """Submit remotely; returns the job handle immediately."""
        return self.submit(
            request, backend=backend, workers=workers, cache=cache
        )

    def submit(
        self,
        request: SimulationRequest,
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
        plan: bool = False,
        wait: Optional[float] = None,
    ) -> "RemoteJob":
        """``POST /v1/jobs`` with 429 backoff; returns a :class:`RemoteJob`.

        ``plan=True`` asks the server to resolve the backend and shard
        layout up front (:func:`repro.sim.selector.plan_request`, with
        ``workers`` as the shard cap) and echo that plan in the
        submission payload (``job.submitted["plan"]``).

        ``wait`` (seconds) asks the server to hold the answer until the
        job is done, up to that long; a job done by then comes back
        with its result inline, and the handle's :meth:`RemoteJob.result`
        returns it without another request.

        Every submission carries a fresh idempotency key, so a POST
        whose connection dropped is retried safely: if the first
        attempt was admitted server-side, the retry replays that job
        instead of duplicating it.
        """
        payload = {
            "wire": WIRE_VERSION,
            "request": wire.request_to_wire(request),
            "backend": backend,
            "workers": workers,
            "cache": cache,
            "idempotency_key": uuid.uuid4().hex,
        }
        if plan:
            payload["plan"] = True
        if wait is not None:
            payload["wait"] = wait
        # The span is live *during* the POST so _request propagates its
        # context as the traceparent — the server's request/job spans
        # become children of client.submit in the stitched trace.
        with span(
            "client.submit",
            algorithm=request.algorithm.name,
            n_trials=request.n_trials,
        ) as sp:
            _, body = self._call(
                "POST", "/v1/jobs", payload=payload, idempotent=True,
                timeout=None if wait is None else wait + _WAIT_MARGIN,
            )
            if sp is not None:
                sp.set_attribute("job_id", body["job_id"])
        inline = body.pop("result", None)
        return RemoteJob(
            self, body["job_id"], submitted=body,
            result=None if inline is None else wire.result_from_wire(inline),
        )

    def submit_sweep(
        self,
        template: SimulationRequest,
        grid: List[Mapping[str, Any]],
        trials: int,
        seed: int,
        seed_keys: Tuple[int, ...] = (),
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
    ) -> "RemoteSweep":
        """``POST /v1/sweeps``: a template + grid, compiled server-side."""
        _, body = self._call(
            "POST",
            "/v1/sweeps",
            payload={
                "wire": WIRE_VERSION,
                "template": wire.request_to_wire(template),
                "grid": [dict(point) for point in grid],
                "trials": trials,
                "seed": seed,
                "seed_keys": list(seed_keys),
                "backend": backend,
                "workers": workers,
                "cache": cache,
                "idempotency_key": uuid.uuid4().hex,
            },
            idempotent=True,
        )
        return RemoteSweep(self, body["sweep_id"])

    # -- inspection ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        return self._call("GET", "/v1/health")[1]

    def backends(self) -> Dict[str, Any]:
        """``GET /v1/backends``."""
        return self._call("GET", "/v1/backends")[1]

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats``."""
        return self._call("GET", "/v1/stats")[1]

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text exposition."""
        response = self._open("GET", "/v1/metrics")
        with response:
            return response.read().decode("utf-8")

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /v1/jobs`` — recent jobs, newest first."""
        return self._call("GET", "/v1/jobs")[1]["jobs"]


class RemoteJob:
    """Remote counterpart of :class:`~repro.sim.jobs.SimulationJob`."""

    def __init__(
        self,
        client: RemoteClient,
        job_id: str,
        submitted: Optional[Dict[str, Any]] = None,
        result: Optional[SimulationResult] = None,
    ) -> None:
        self._client = client
        self.job_id = job_id
        #: The submission response (initial status), for convenience.
        self.submitted = submitted
        # The result the submission carried inline, if it did.
        self._result = result

    def status(self) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}`` — the raw status payload."""
        return self._client._call("GET", f"/v1/jobs/{self.job_id}")[1]

    @property
    def state(self) -> JobState:
        """The job's current state (one HTTP round trip)."""
        return wire.state_from_wire(self.status()["state"])

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        from repro.sim.jobs import TERMINAL_STATES

        return self.state in TERMINAL_STATES

    def progress(self) -> Dict[str, Any]:
        """The status route's progress snapshot."""
        return self.status()["progress"]

    def iter_events(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Raw SSE events: ``(event, data)`` in stream order.

        Events: one initial ``progress``, one ``shard`` per completed
        trial shard, then a terminal ``done``/``failed``/``cancelled``.
        A dropped stream resumes transparently via ``Last-Event-ID``
        (bounded by the client's ``max_attempts``), so consumers see
        one seamless sequence across reconnects.
        """
        for event, data, _ in self._client._stream_events(
            f"/v1/jobs/{self.job_id}/events"
        ):
            yield event, data

    def iter_results(self) -> Iterator[ShardResult]:
        """Stream :class:`ShardResult` values as shards complete.

        The remote mirror of
        :meth:`~repro.sim.jobs.SimulationJob.iter_results`: raises
        :class:`~repro.errors.JobCancelledError` on cancellation,
        :class:`RemoteServerError` if the job failed — or if the SSE
        stream closed before a terminal event (dropped connection,
        server restart), so truncated results are never mistaken for
        success.
        """
        terminal = False
        for event, data in self.iter_events():
            if event == "shard":
                yield wire.shard_from_wire(data)
            elif event == "done":
                terminal = True
            elif event == "cancelled":
                raise JobCancelledError(
                    data.get("error") or f"job {self.job_id} was cancelled"
                )
            elif event == "failed":
                raise RemoteServerError(
                    f"job {self.job_id} failed: {data.get('error')}"
                )
        if not terminal:
            raise RemoteServerError(
                f"event stream for job {self.job_id} ended before a "
                f"terminal event; results may be incomplete"
            )

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        """Long-poll ``/result`` until terminal; decode the full result.

        A result that came inline with the submission is returned as is.
        """
        if self._result is not None:
            return self._result
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _RESULT_WAIT
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    raise TimeoutError(
                        f"remote job {self.job_id} still running after "
                        f"{timeout}s"
                    )
            try:
                status, body = self._client._call(
                    "GET",
                    f"/v1/jobs/{self.job_id}/result?wait={wait:g}",
                    timeout=wait + _WAIT_MARGIN,
                )
            except RemoteServerError as error:
                if error.status == 410:
                    raise JobCancelledError(str(error)) from None
                raise
            if status == 200:
                return wire.result_from_wire(body)
            # 202: still running — poll again.

    def trace(self) -> Tuple[str, List[Dict[str, Any]]]:
        """``GET /v1/jobs/{id}/trace`` -> ``(trace_id, span payloads)``.

        The server's recorded spans for this job's trace; merge with
        locally recorded spans of the same trace id for the full
        client -> server -> shards picture.
        """
        _, body = self._client._call(
            "GET", f"/v1/jobs/{self.job_id}/trace"
        )
        return wire.trace_from_wire(body)

    def cancel(self) -> bool:
        """``DELETE /v1/jobs/{id}``; ``True`` if accepted."""
        _, body = self._client._call("DELETE", f"/v1/jobs/{self.job_id}")
        return bool(body.get("cancelled"))


class RemoteSweep:
    """Remote counterpart of :class:`~repro.sim.runner.SweepJob`."""

    def __init__(self, client: RemoteClient, sweep_id: str) -> None:
        self._client = client
        self.sweep_id = sweep_id

    def status(self) -> Dict[str, Any]:
        """``GET /v1/sweeps/{id}`` — progress plus completed rows."""
        return self._client._call("GET", f"/v1/sweeps/{self.sweep_id}")[1]

    def iter_rows(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Stream ``(point_index, row)`` as grid points complete.

        Dropped streams resume via ``Last-Event-ID`` like the job
        event stream.
        """
        terminal = False
        for event, data, _ in self._client._stream_events(
            f"/v1/sweeps/{self.sweep_id}/events"
        ):
            if event == "row":
                yield data["point_index"], data
            elif event == "done":
                terminal = True
            elif event == "cancelled":
                raise JobCancelledError(
                    data.get("error")
                    or f"sweep {self.sweep_id} was cancelled"
                )
            elif event == "failed":
                raise RemoteServerError(
                    f"sweep {self.sweep_id} failed: {data.get('error')}"
                )
        if not terminal:
            raise RemoteServerError(
                f"event stream for sweep {self.sweep_id} ended before a "
                f"terminal event; rows may be incomplete"
            )

    def result(
        self, poll_seconds: float = 0.2, timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Poll until terminal; the completed rows in grid order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status()
            state = wire.state_from_wire(status["state"])
            if state is JobState.DONE:
                return status["rows"]
            if state is JobState.CANCELLED:
                raise JobCancelledError(
                    f"sweep {self.sweep_id} was cancelled"
                )
            if state is JobState.FAILED:
                raise RemoteServerError(f"sweep {self.sweep_id} failed")
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"remote sweep {self.sweep_id} still {state.value}"
                )
            self._client._sleep(poll_seconds)

    def cancel(self) -> bool:
        """``DELETE /v1/sweeps/{id}``; ``True`` if accepted."""
        _, body = self._client._call(
            "DELETE", f"/v1/sweeps/{self.sweep_id}"
        )
        return bool(body.get("cancelled"))
