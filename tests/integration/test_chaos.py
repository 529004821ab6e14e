"""Chaos suite: fault injection against the full stack.

Pins the ISSUE's resilience acceptance criteria end to end:

* **worker kill** — a pool worker killed mid-shard (``os._exit``)
  breaks the executor for every in-flight sibling; the job rebuilds
  the pool, retries, and completes **bit-identical** to an unfaulted
  run with **zero duplicate simulation**: the backend-run counter
  advances by exactly the shard count;
* **corrupt cache entry** — a disk entry corrupted at write time is
  quarantined on the next lookup and transparently re-simulated,
  bit-identical;
* **severed SSE stream** — a connection reset mid-stream resumes via
  ``Last-Event-ID`` with no duplicated and no missing shard events;
* **idempotent submission** — a POST retried after a connection error
  replays the originally admitted job instead of duplicating it.

Every fault is a seeded :class:`~repro.resilience.faults.FaultPlan`
rule, so each scenario is exactly reproducible.  Pool-targeting tests
use a private :class:`~repro.sim.jobs.JobManager` whose workers are
forked *after* ``activate()`` and therefore inherit the plan through
the environment.
"""

from __future__ import annotations

import pytest

import repro.sim.cache as cache_module
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    deactivate,
)
from repro.server.client import RemoteClient
from repro.server.wire import WIRE_VERSION, request_to_wire
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.cache import configure_cache
from repro.sim.jobs import JobManager
from repro.sim.service import backend_run_count


def _request(**overrides) -> SimulationRequest:
    fields = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=2,
        target=(6, 4),
        move_budget=200_000,
        n_trials=8,
        seed=20260808,
    )
    fields.update(overrides)
    return SimulationRequest(**fields)


@pytest.fixture
def fresh_cache(tmp_path):
    cache = configure_cache(directory=tmp_path, max_memory_entries=64)
    cache.clear()
    yield cache
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


@pytest.fixture(autouse=True)
def no_leftover_faults():
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def server():
    app_module = pytest.importorskip("repro.server.app")
    with app_module.SimulationServer(port=0, max_jobs=4) as instance:
        yield instance


@pytest.fixture
def client(server):
    return RemoteClient(server.url, backoff_seconds=0.05)


class TestWorkerKill:
    def test_killed_worker_completes_bit_identical_zero_resim(
        self, fresh_cache
    ):
        """The headline chaos guarantee.

        Killing the worker running shard 2 breaks the pool for every
        in-flight sibling at once.  The job must still settle on the
        unfaulted outcomes, and the backend-run counter must advance
        by exactly the shard count: shards recorded before the break
        are never re-run, and every retried shard is counted once.
        """
        request = _request()
        reference = simulate(request, backend="reference", cache=False)
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.shard",
                        kind="kill",
                        # attempt=0 so the retry (attempt 1) survives;
                        # the replacement worker's counters start fresh.
                        match={"shard_index": 2, "attempt": 0},
                    ),
                )
            )
        )
        manager = JobManager()
        try:
            before = backend_run_count()
            job = manager.submit(
                request, backend="reference", workers=4, cache=True
            )
            result = job.result(timeout=120)
        finally:
            deactivate()
            manager.close()
        assert result.outcomes == reference.outcomes
        assert job._retries >= 1  # at least the killed shard retried
        # Zero duplicate simulation: 4 shards, 4 recorded executions —
        # despite the kill and the broken-pool retries around it.
        assert backend_run_count() == before + 4


class TestCorruptCacheEntry:
    def test_corrupted_disk_entry_is_quarantined_and_resimulated(
        self, fresh_cache, tmp_path
    ):
        request = _request(n_trials=4)
        # The fault corrupts the bytes as they hit disk; the in-memory
        # result the first run returns is untouched.
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="cache.disk_write",
                        kind="corrupt",
                        match={"level": "entry"},
                    ),
                )
            )
        )
        original = simulate(request, backend="reference", cache=True)
        deactivate()
        # A fresh cache instance over the same directory: empty memory,
        # so the lookup must go to the corrupted disk entry.
        cache = configure_cache(directory=tmp_path, max_memory_entries=64)
        before_runs = backend_run_count()
        replay = simulate(request, backend="reference", cache=True)
        assert replay.outcomes == original.outcomes
        assert backend_run_count() == before_runs + 1  # re-simulated
        assert cache.info().quarantined >= 1


class TestSeveredEventStream:
    def test_sse_resumes_after_connection_reset(self, client, server):
        """The reset fires as event id 2 is written; the client must
        reconnect with ``Last-Event-ID`` and see one seamless,
        duplicate-free sequence."""
        request = _request(seed=777, n_trials=6)
        local = simulate(request, backend="reference", cache=False)
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="server.sse",
                        kind="reset",
                        match={"event_index": 2},
                        max_fires=1,
                    ),
                )
            )
        )
        job = client.submit(
            request, backend="reference", workers=3, cache=False
        )
        shards = list(job.iter_results())
        assert client.retries_stream == 1
        # Every shard delivered exactly once across the two connections.
        assert sorted(shard.shard_index for shard in shards) == [0, 1, 2]
        outcomes = [
            outcome
            for shard in sorted(shards, key=lambda s: s.trial_start)
            for outcome in shard.outcomes
        ]
        assert tuple(outcomes) == local.outcomes

    def test_unfaulted_stream_needs_no_resume(self, client):
        request = _request(seed=778, n_trials=4)
        job = client.submit(
            request, backend="reference", workers=2, cache=False
        )
        assert len(list(job.iter_results())) == 2
        assert client.retries_stream == 0


class TestIdempotentSubmission:
    def _payload(self, request, key):
        return {
            "wire": WIRE_VERSION,
            "request": request_to_wire(request),
            "backend": "reference",
            "workers": 1,
            "cache": False,
            "idempotency_key": key,
        }

    def test_duplicate_key_replays_the_admitted_job(self, client):
        request = _request(seed=779, n_trials=2)
        payload = self._payload(request, "chaos-fixed-key-jobs")
        _, first = client._call(
            "POST", "/v1/jobs", payload=payload, idempotent=True
        )
        _, second = client._call(
            "POST", "/v1/jobs", payload=payload, idempotent=True
        )
        assert second["job_id"] == first["job_id"]
        assert second.get("idempotent_replay") is True
        assert not first.get("idempotent_replay")

    def test_duplicate_sweep_key_replays_the_admitted_sweep(self, client):
        template = _request(seed=780, n_trials=1)
        payload = {
            "wire": WIRE_VERSION,
            "template": request_to_wire(template),
            "grid": [{"n_agents": 1}, {"n_agents": 2}],
            "trials": 2,
            "seed": 7,
            "seed_keys": [],
            "backend": "reference",
            "workers": 1,
            "cache": False,
            "idempotency_key": "chaos-fixed-key-sweeps",
        }
        _, first = client._call(
            "POST", "/v1/sweeps", payload=payload, idempotent=True
        )
        _, second = client._call(
            "POST", "/v1/sweeps", payload=payload, idempotent=True
        )
        assert second["sweep_id"] == first["sweep_id"]
        assert second.get("idempotent_replay") is True

    def test_post_retried_after_connection_reset(self, client):
        """The reset fires before the first POST leaves the client, so
        the retry is the submission that lands — and it must succeed
        end to end."""
        request = _request(seed=781, n_trials=2)
        local = simulate(request, backend="reference", cache=False)
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="client.http",
                        kind="reset",
                        match={
                            "method": "POST",
                            "path": "/v1/jobs",
                            "attempt": 0,
                        },
                        max_fires=1,
                    ),
                )
            )
        )
        job = client.submit(request, backend="reference", cache=False)
        deactivate()
        assert client.retries_connect == 1
        assert job.result(timeout=60).outcomes == local.outcomes
