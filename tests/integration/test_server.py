"""The serving layer end to end, over a real socket.

Pins the ISSUE's acceptance criteria:

* **remote/local equivalence** — for a fixed seed, a request submitted
  through :class:`RemoteClient` returns outcomes identical to
  in-process :func:`simulate` (same ``derive_seed`` addressing);
* **SSE completeness** — the event stream of a multi-shard job
  delivers every shard, with monotonically increasing event ids, the
  trial ranges tiling the full request;
* **429 + backoff** — submissions beyond ``max_jobs`` receive 429 with
  ``Retry-After``, and a backing-off client completes anyway;
* **one round trip on one connection** — ``simulate()`` is a single
  ``POST`` on a kept-alive socket, a server-closed idle socket is
  resent transparently, and admission does not scan finished history;

plus status fallback to the JSON ledger for jobs evicted from the
in-process registry, cancellation, sweeps, and the stats/backends
routes.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import JobCancelledError
from repro.server.client import RemoteClient, RemoteServerError
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.backends.base import SimulationBackend
from repro.sim.backends.registry import register_backend
from repro.sim.jobs import (
    JobState,
    find_job_record,
    get_manager,
    job_status_record,
)
from repro.sim.metrics import OutcomeBatch, SearchOutcome
from repro.sim.runner import SimulationTrial, Sweep


def _request(**overrides) -> SimulationRequest:
    fields = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=4,
        target=(8, 8),
        move_budget=300_000,
        n_trials=6,
        seed=424242,
    )
    fields.update(overrides)
    return SimulationRequest(**fields)


#: Sentinel first seed key marking a request as addressed to the slow
#: test backend — supports() claims nothing else, so the registered
#: backend can never leak into auto resolution for ordinary requests
#: (other test modules assert the exact auto-resolution table).
_SLOW_KEY = 987_654_321


class _SlowBackend(SimulationBackend):
    """Deterministically slow: holds a job RUNNING for the 429 tests."""

    name = "slowtest"
    seconds = 0.8

    def supports(self, request: SimulationRequest) -> bool:
        return request.seed_keys[:1] == (_SLOW_KEY,)

    def run(self, request, trial_indices=None):
        time.sleep(self.seconds)
        count = (
            request.n_trials if trial_indices is None else len(trial_indices)
        )
        return OutcomeBatch.from_outcomes([
            SearchOutcome(
                found=False, m_moves=None, m_steps=None, finder=None,
                n_agents=request.n_agents, move_budget=request.move_budget,
            )
            for _ in range(count)
        ])


def _slow_request(**overrides):
    overrides.setdefault("seed_keys", (_SLOW_KEY,))
    return _request(**overrides)


def _ensure_slow_backend() -> None:
    try:
        register_backend(_SlowBackend())
    except Exception:
        pass  # already registered by an earlier test in this process


# Register at import (collection) time: the shared manager's worker
# pool forks during test *execution*, which always comes after
# collection, so every worker process inherits the slow backend.
_ensure_slow_backend()


@pytest.fixture(scope="module")
def server():
    """One shared server on an ephemeral port for the module."""
    app_module = pytest.importorskip("repro.server.app")
    with app_module.SimulationServer(port=0, max_jobs=4) as instance:
        yield instance


@pytest.fixture
def client(server):
    client = RemoteClient(server.url, backoff_seconds=0.05)
    yield client
    client.close()


class TestRemoteLocalEquivalence:
    def test_fixed_seed_remote_equals_local_multi_shard(self, client):
        """The headline guarantee, over a real socket with sharding."""
        request = _request()
        local = simulate(request, backend="reference", cache=False)
        remote = client.simulate(
            request, backend="reference", workers=2, cache=False
        )
        assert remote.outcomes == local.outcomes
        assert remote.request == request
        assert remote.backend == "reference"

    def test_planned_submit_echoes_plan_and_matches_unplanned(self, client):
        request = _request(seed=5150)
        job = client.submit(
            request, backend="reference", workers=2, cache=False,
            plan=True,
        )
        assert job.submitted["plan"] == {
            "backend": "reference", "n_shards": 2, "workers": 2,
        }
        unplanned = client.submit(request, backend="reference", cache=False)
        planned = job.result()
        assert planned.backend == "reference"
        assert planned.outcomes == unplanned.result().outcomes

    def test_remote_simulate_async_mirror(self, client):
        request = _request(seed=7, n_trials=3)
        local = simulate(request, backend="reference", cache=False)
        job = client.simulate_async(request, backend="reference", cache=False)
        assert job.result().outcomes == local.outcomes
        assert job.done()

    def test_cached_submission_streams_from_cache(self, client):
        """A resubmitted request is served by the result cache."""
        request = _request(seed=99, n_trials=2)
        client.simulate(request, backend="reference", cache=True)
        job = client.submit(request, backend="reference", cache=True)
        shards = list(job.iter_results())
        assert shards and all(shard.from_cache for shard in shards)


class TestSSEStream:
    def test_every_shard_delivered_in_order(self, client):
        """A 3-shard job streams 3 shard events tiling all trials."""
        request = _request(seed=31337)
        job = client.submit(
            request, backend="reference", workers=3, cache=False
        )
        events = []
        response = client._open(
            "GET", f"/v1/jobs/{job.job_id}/events", stream=True
        )
        from repro.server.client import _iter_sse

        with response:
            for event, data, event_id in _iter_sse(response):
                events.append((event, data, int(event_id)))

        kinds = [kind for kind, _, _ in events]
        assert kinds[0] == "progress"
        assert kinds[-1] == "done"
        ids = [event_id for _, _, event_id in events]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

        shards = [data for kind, data, _ in events if kind == "shard"]
        assert len(shards) == 3
        covered = sorted(
            (shard["trial_start"], shard["trial_count"]) for shard in shards
        )
        tiled = []
        for start, count in covered:
            tiled.extend(range(start, start + count))
        assert tiled == list(range(request.n_trials))
        assert {shard["shard_index"] for shard in shards} == {0, 1, 2}

    def test_iter_results_reconstructs_shard_objects(self, client):
        request = _request(seed=555, n_trials=4)
        job = client.submit(
            request, backend="reference", workers=2, cache=False
        )
        shards = list(job.iter_results())
        outcomes = [
            outcome
            for shard in sorted(shards, key=lambda s: s.trial_start)
            for outcome in shard.outcomes
        ]
        local = simulate(request, backend="reference", cache=False)
        assert tuple(outcomes) == local.outcomes


class TestConcurrencyLimit:
    def test_429_retry_after_and_backoff_completion(self):
        """Beyond max_jobs: 429 + Retry-After; backoff completes."""
        _ensure_slow_backend()
        from repro.server.app import SimulationServer

        with SimulationServer(port=0, max_jobs=1) as server:
            patient = RemoteClient(server.url, backoff_seconds=0.05)
            blocker = patient.submit(
                _slow_request(seed=1, n_trials=1), backend="slowtest", cache=False
            )

            # A no-retry client sees the rejection and its Retry-After.
            impatient = RemoteClient(server.url, max_attempts=1)
            with pytest.raises(RemoteServerError) as excinfo:
                impatient.submit(
                    _slow_request(seed=2, n_trials=1),
                    backend="slowtest",
                    cache=False,
                )
            assert excinfo.value.status == 429

            import json as json_module
            import urllib.error
            import urllib.request

            from repro.server.wire import WIRE_VERSION, request_to_wire

            raw = urllib.request.Request(
                f"{server.url}/v1/jobs",
                data=json_module.dumps(
                    {
                        "wire": WIRE_VERSION,
                        "request": request_to_wire(
                            _slow_request(seed=3, n_trials=1)
                        ),
                        "backend": "slowtest",
                        "cache": False,
                    }
                ).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as http_excinfo:
                urllib.request.urlopen(raw, timeout=10)
            assert http_excinfo.value.code == 429
            assert float(http_excinfo.value.headers["Retry-After"]) > 0
            http_excinfo.value.close()

            # The backing-off client absorbs the 429s and completes.
            job = patient.submit(
                _slow_request(seed=4, n_trials=1), backend="slowtest", cache=False
            )
            result = job.result(timeout=30)
            assert len(result.outcomes) == 1
            assert patient.retries_429 >= 1
            assert blocker.result(timeout=30) is not None

            stats = patient.stats()
            assert stats["rejected_429"] >= 2

    def test_sweeps_count_against_the_admission_limit(self):
        """POST /v1/sweeps is admission-controlled like /v1/jobs."""
        from repro.server.app import SimulationServer

        with SimulationServer(port=0, max_jobs=1) as server:
            client = RemoteClient(server.url)
            client.submit(
                _slow_request(seed=6, n_trials=1),
                backend="slowtest",
                cache=False,
            )
            impatient = RemoteClient(server.url, max_attempts=1)
            with pytest.raises(RemoteServerError) as excinfo:
                impatient.submit_sweep(
                    _request(n_trials=1),
                    [{"n_agents": 1}],
                    trials=1,
                    seed=0,
                    backend="reference",
                )
            assert excinfo.value.status == 429


class TestStatusAndLedgerFallback:
    def test_status_falls_back_to_ledger_after_eviction(self, server, client):
        """A finished job evicted from the registry still answers."""
        request = _request(seed=2718, n_trials=2)
        job = client.submit(request, backend="reference", cache=False)
        job.result()
        job_id = job.job_id
        assert client._call("GET", f"/v1/jobs/{job_id}")[1]["source"] == "live"

        # The driver's final ledger write lands just after result()
        # unblocks; wait for the record to settle before evicting.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            record = find_job_record(job_id)
            if record is not None and record.get("state") == "done":
                break
            time.sleep(0.02)

        # Evict the handle from the manager registry and the server's
        # own index, simulating MAX_RETAINED_JOBS turnover.
        manager = get_manager()
        with manager._lock:
            manager._jobs.pop(job_id, None)
        with server._lock:
            server._jobs.pop(job_id, None)

        status = client._call("GET", f"/v1/jobs/{job_id}")[1]
        assert status["source"] == "ledger"
        assert status["state"] == "done"
        assert status["progress"]["done_trials"] == request.n_trials

        # The CLI helper behind `repro-ants jobs status` does the same.
        record = job_status_record(job_id)
        assert record is not None and record["state"] == "done"

    def test_unknown_job_404(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("GET", "/v1/jobs/job-does-not-exist")
        assert excinfo.value.status == 404

    def test_list_jobs_route(self, client):
        request = _request(seed=11, n_trials=1)
        job = client.submit(request, backend="reference", cache=False)
        job.result()
        listed = client.jobs()
        assert any(entry["job_id"] == job.job_id for entry in listed)


class TestCancellation:
    def test_delete_cancels_running_job(self):
        """Cancellation is honored at shard boundaries of a pooled job."""
        from repro.server.app import SimulationServer

        with SimulationServer(port=0, max_jobs=4) as server:
            client = RemoteClient(server.url)
            # Two pooled shards of 0.8s each: the DELETE lands while
            # they run, and the driver settles the job CANCELLED.
            job = client.submit(
                _slow_request(seed=5, n_trials=4),
                backend="slowtest",
                workers=2,
                cache=False,
            )
            assert job.cancel()
            with pytest.raises(JobCancelledError):
                job.result(timeout=30)
            assert job.state is JobState.CANCELLED

    def test_cancel_unknown_job_404(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("DELETE", "/v1/jobs/job-nope")
        assert excinfo.value.status == 404


class TestSweeps:
    def test_remote_sweep_rows_equal_local(self, client):
        template = _request(n_agents=1, n_trials=1)
        grid = [{"n_agents": 1}, {"n_agents": 2}, {"n_agents": 4}]

        def factory(params):
            return replace(template, n_agents=params["n_agents"])

        local_rows = Sweep(
            SimulationTrial(
                factory=factory, backend="reference", cache=False
            ),
            grid=grid,
            trials=3,
            seed=77,
        ).run()

        sweep = client.submit_sweep(
            template,
            grid,
            trials=3,
            seed=77,
            backend="reference",
            cache=False,
        )
        rows = sweep.result(timeout=120)
        assert [row["params"] for row in rows] == grid
        assert [row["estimate"]["mean"] for row in rows] == [
            row.estimate.mean for row in local_rows
        ]

    def test_evicted_sweep_status_is_retained(self, server, client):
        """A finished sweep evicted from the handle map still answers
        with its final rows (the sweep-side ledger analogue)."""
        sweep = client.submit_sweep(
            _request(n_trials=1),
            [{"n_agents": 1}],
            trials=2,
            seed=41,
            backend="reference",
            cache=False,
        )
        rows = sweep.result(timeout=60)
        with server._lock:
            handle = server._sweeps.pop(sweep.sweep_id)
            server._sweep_records[sweep.sweep_id] = (
                server._sweep_status_payload(sweep.sweep_id, handle)
            )
        status = sweep.status()
        assert status["state"] == "done"
        assert status["rows"] == rows

    def test_sweep_sse_rows_in_grid_order(self, client):
        template = _request(n_agents=1, n_trials=1)
        sweep = client.submit_sweep(
            template,
            [{"n_agents": 1}, {"n_agents": 2}],
            trials=2,
            seed=5,
            backend="reference",
            cache=False,
        )
        indices = [index for index, _ in sweep.iter_rows()]
        assert indices == [0, 1]

    def test_bad_grid_key_rejected(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit_sweep(
                _request(), [{"warp_speed": 9}], trials=1, seed=0
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "point", [{"move_budget": "big"}, {"n_agents": 2.5}, {"ell": "one"}]
    )
    def test_non_integer_grid_value_is_a_400(self, client, point):
        """Malformed override values fail the submission, not the
        background driver (and never as a 500)."""
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit_sweep(_request(), [point], trials=1, seed=0)
        assert excinfo.value.status == 400

    def test_workers_clamped_to_server_cap(self, client, server):
        """A huge remote workers value is clamped to the server's
        per-job cap instead of growing the process pool unboundedly."""
        request = _request(seed=90210, n_trials=20)
        local = simulate(request, backend="reference", cache=False)
        job = client.submit(
            request, backend="reference", workers=4096, cache=False
        )
        result = job.result()
        assert result.outcomes == local.outcomes
        assert job.progress()["total_shards"] <= server.max_workers_per_job


class TestIntrospectionRoutes:
    def test_backends_route(self, client):
        payload = client.backends()
        assert {"reference", "batched"} <= set(payload["backends"])
        assert payload["auto_resolution"]["algorithm1"] is not None

    def test_backends_route_reports_decline_reasons(self, client):
        """Declines carry the supports() gating reason over the wire."""
        payload = client.backends()
        batched = payload["backends"]["batched"]
        assert "kernel" in batched["declines"]["spiral"]
        # Reference supports everything -> no decline entries at all.
        assert payload["backends"]["reference"]["declines"] == {}

    def test_stats_route_includes_cache_counters(self, client):
        request = _request(seed=8080, n_trials=2)
        client.simulate(request, backend="reference", workers=2, cache=True)
        client.simulate(request, backend="reference", workers=2, cache=True)
        stats = client.stats()
        cache = stats["cache"]
        for key in (
            "hits_memory", "hits_disk", "misses", "stores",
            "hits_shard", "misses_shard", "stores_shard",
        ):
            assert key in cache
        assert stats["jobs_submitted"] >= 1
        assert stats["max_jobs"] == 4
        assert stats["requests_total"] >= 1

    def test_malformed_body_400(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("POST", "/v1/jobs", payload={"wire": 1})
        assert excinfo.value.status == 400

    def test_removed_accelerator_backend_is_a_400(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit(_request(), backend="accelerator")
        assert excinfo.value.status == 400

    def test_removed_closed_form_backend_is_a_400_on_jobs(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit(_request(), backend="closed_form")
        assert excinfo.value.status == 400
        assert "unknown backend" in str(excinfo.value)

    def test_removed_closed_form_backend_is_a_400_on_sweeps(
        self, client, server
    ):
        """An unknown backend is refused at admission, not left to fail
        the sweep after it was admitted."""
        before = client.stats()["sweeps_submitted"]
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit_sweep(
                _request(), [{"n_agents": 1}], trials=1, seed=0,
                backend="closed_form",
            )
        assert excinfo.value.status == 400
        assert "unknown backend" in str(excinfo.value)
        assert client.stats()["sweeps_submitted"] == before
        with server._lock:
            assert server._active_units() == 0

    def test_unsupporting_backend_is_a_400_on_sweeps(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client.submit_sweep(
                _request(algorithm=AlgorithmSpec.spiral()), [{"n_agents": 1}],
                trials=1, seed=0, backend="batched",
            )
        assert excinfo.value.status == 400
        assert "does not support" in str(excinfo.value)

    def test_version_one_client_gets_400(self, client):
        """A client speaking wire v1 (one JSON object per outcome) is
        refused at the door, not misread."""
        from repro.server.wire import request_to_wire

        stale = dict(request_to_wire(_request()), wire=1)
        with pytest.raises(RemoteServerError) as excinfo:
            client._call(
                "POST", "/v1/jobs", payload={"wire": 1, "request": stale}
            )
        assert excinfo.value.status == 400
        assert "wire version" in str(excinfo.value)

    def test_unknown_route_404(self, client):
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("GET", "/v2/jobs")
        assert excinfo.value.status == 404

    def test_keep_alive_survives_an_error_response(self, server):
        """An error sent before the body was read must not desync the
        connection: the unread body would otherwise be parsed as the
        next request line on a keep-alive socket."""
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            body = json_module.dumps({"x": 1})
            connection.request(
                "POST", "/v1/nope", body=body,
                headers={"Content-Type": "application/json"},
            )
            first = connection.getresponse()
            assert first.status == 404
            first.read()
            # Same connection: the next request must parse cleanly.
            connection.request("GET", "/v1/health")
            second = connection.getresponse()
            assert second.status == 200
            assert json_module.loads(second.read())["status"] == "ok"
        finally:
            connection.close()


class TestTransport:
    @staticmethod
    def _socket_name(client):
        return client._local.connection.sock.getsockname()

    @staticmethod
    def _record_calls(client, monkeypatch):
        """(method, path without query) of every JSON call made."""
        calls = []
        original = client._call

        def spy(method, path, *args, **kwargs):
            calls.append((method, path.split("?")[0]))
            return original(method, path, *args, **kwargs)

        monkeypatch.setattr(client, "_call", spy)
        return calls

    def test_simulate_calls_share_one_connection(self, client):
        names = set()
        for seed in range(5):
            client.simulate(
                _request(seed=6000 + seed, n_trials=2),
                backend="reference", cache=False,
            )
            names.add(self._socket_name(client))
        assert len(names) == 1

    def test_simulate_is_one_post(self, client, monkeypatch):
        calls = self._record_calls(client, monkeypatch)
        request = _request(seed=6100, n_trials=2)
        remote = client.simulate(request, backend="reference", cache=False)
        assert calls == [("POST", "/v1/jobs")]
        local = simulate(request, backend="reference", cache=False)
        assert remote.outcomes == local.outcomes

    def test_keep_alive_health_round_trip_is_fast(self, client):
        """Fails if the server leaves Nagle's algorithm on: each
        two-write response then waits ~40 ms for a delayed ACK."""
        client.health()
        latencies = []
        for _ in range(40):
            start = time.perf_counter()
            client.health()
            latencies.append(time.perf_counter() - start)
        assert statistics.median(latencies) < 0.020

    def test_idle_close_is_resent_transparently(self, client, monkeypatch):
        from repro.server.app import _Handler

        # Read per connection at handler setup: the client's first
        # call opens a connection whose handler drops it after 0.2 s.
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        client.health()
        first = self._socket_name(client)
        time.sleep(0.6)
        request = _request(seed=6200, n_trials=2)
        remote = client.simulate(request, backend="reference", cache=False)
        assert self._socket_name(client) != first
        assert client.retries_connect == 0
        local = simulate(request, backend="reference", cache=False)
        assert remote.outcomes == local.outcomes

    def test_server_ignoring_wait_still_returns_the_result(
        self, client, monkeypatch
    ):
        from repro.server.app import SimulationServer

        monkeypatch.setattr(
            SimulationServer, "_finished_result",
            lambda self, job_id, wait: None,
        )
        calls = self._record_calls(client, monkeypatch)
        request = _request(seed=6300, n_trials=3)
        remote = client.simulate(request, backend="reference", cache=False)
        local = simulate(request, backend="reference", cache=False)
        assert remote.outcomes == local.outcomes
        assert any(path.endswith("/result") for _, path in calls)

    @pytest.mark.parametrize("wait", [-1, "x", True, float("nan")])
    def test_invalid_wait_is_a_400(self, client, wait):
        from repro.server.wire import WIRE_VERSION, request_to_wire

        before = client.stats()["jobs_submitted"]
        payload = {
            "wire": WIRE_VERSION,
            "request": request_to_wire(_request(n_trials=1)),
            "wait": wait,
        }
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("POST", "/v1/jobs", payload=payload)
        assert excinfo.value.status == 400
        assert "wait" in str(excinfo.value)
        assert client.stats()["jobs_submitted"] == before


    @pytest.mark.parametrize("wait", ["nan", "inf", "-1"])
    def test_invalid_result_wait_is_a_400(self, client, wait):
        """A NaN wait would park the handler past the 60 s cap."""
        job = client.submit(_request(seed=6500, n_trials=1), cache=False)
        with pytest.raises(RemoteServerError) as excinfo:
            client._call("GET", f"/v1/jobs/{job.job_id}/result?wait={wait}")
        assert excinfo.value.status == 400
        assert job.result(timeout=30) is not None


class TestAdmissionCost:
    def test_submission_asks_done_of_live_jobs_only(self, monkeypatch):
        """With 1,000 finished jobs tracked, admitting one more makes a
        constant number of done() calls (the scan over every tracked
        handle made 1,257 here: 1,000 server-side, 257 in the
        manager's retention trim)."""
        from repro.server.app import SimulationServer
        from repro.server.wire import WIRE_VERSION, request_to_wire
        from repro.sim.jobs import JobManager, SimulationJob

        payload = {
            "wire": WIRE_VERSION,
            "request": request_to_wire(_request(seed=6400, n_trials=1)),
            "backend": "reference",
            "cache": True,
            "wait": 30,
        }
        with SimulationServer(
            port=0, max_jobs=4, manager=JobManager()
        ) as server:
            for _ in range(1000):
                assert "result" in server.submit_job(payload)
            submitter = threading.get_ident()
            calls = []
            done = SimulationJob.done

            def counting(job):
                if threading.get_ident() == submitter:
                    calls.append(job.job_id)
                return done(job)

            monkeypatch.setattr(SimulationJob, "done", counting)
            server.submit_job(payload)
            assert len(server._jobs) == 1001
        assert len(calls) <= 4, calls


class TestLifecycle:
    def test_close_returns_on_a_server_that_never_served(self):
        """socketserver's shutdown() waits for serve_forever() to exit,
        so on a server that never served close() must not call it."""
        from repro.server.app import SimulationServer

        server = SimulationServer(port=0)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive()

    def test_close_stops_serve_forever_on_another_thread(self):
        """The CLI serves with serve_forever() on its own thread, not
        start(): close() must still stop that loop."""
        from repro.server.app import SimulationServer

        server = SimulationServer(port=0)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        client = RemoteClient(server.url)
        try:
            assert client.health()["status"] == "ok"
        finally:
            client.close()
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        serving.join(timeout=5.0)
        assert not closer.is_alive()
        assert not serving.is_alive()
