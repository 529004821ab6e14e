"""Serving-layer benchmark — updates ``BENCH_sim_backends.json``.

Boots a real :class:`~repro.server.app.SimulationServer` on an
ephemeral port and measures what the HTTP/SSE layer costs remote
callers:

* **submit -> first event latency** — wall-clock from ``POST /v1/jobs``
  to the first SSE event on ``/v1/jobs/{id}/events`` (the number an
  incremental dashboard sees), and to the first completed *shard*;
* **requests/sec** — sequential round-trip throughput on a cheap
  introspection route (``GET /v1/health``), the floor for pollers;
* **remote overhead** — remote ``simulate()`` wall-clock over the
  in-process call for the standard workload, and the median over
  interleaved pairs of remote minus local latency of a memory-cache
  replay (what the wire and server add when nothing is simulated).

Gates are deliberately loose (regression tripwires, not precision
numbers): the serving layer must answer health checks at >= 50 req/s
and deliver a first event within 2 s on the standard workload.  The
health floor is not vacuous: with Nagle's algorithm left on in the
server, keep-alive round trips wait on delayed ACKs and the floor
fails (``test_health_floor_fails_with_nagle_on``).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

from bench_sim_backends import update_record

from repro.server.app import SimulationServer, _Handler
from repro.server.client import RemoteClient
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 100_000,
    "n_trials": 200,
    "backend": "batched",
}

_REPEATS = 3
_HEALTH_ROUNDTRIPS = 100
_HEALTH_FLOOR = 50  # requests/sec
_REPLAY_PAIRS = 30


def _request(seed: int) -> SimulationRequest:
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(WORKLOAD["distance"]),
        n_agents=WORKLOAD["n_agents"],
        target=WORKLOAD["target"],
        move_budget=WORKLOAD["move_budget"],
        n_trials=WORKLOAD["n_trials"],
        seed=seed,
    )


def _time_submit_to_first_event(client: RemoteClient, seed: int):
    """(first-event latency, first-shard latency, total stream time)."""
    start = time.perf_counter()
    job = client.submit(
        _request(seed), backend=WORKLOAD["backend"], cache=False
    )
    first_event = None
    first_shard = None
    for event, _data in job.iter_events():
        now = time.perf_counter() - start
        if first_event is None:
            first_event = now
        if event == "shard" and first_shard is None:
            first_shard = now
    total = time.perf_counter() - start
    assert first_event is not None and first_shard is not None
    return first_event, first_shard, total


def _health_requests_per_second(client: RemoteClient) -> float:
    """Sequential round trips per second on the cheapest route."""
    client.health()  # warm the connection path
    start = time.perf_counter()
    for _ in range(_HEALTH_ROUNDTRIPS):
        client.health()
    return _HEALTH_ROUNDTRIPS / (time.perf_counter() - start)


def _replay_gap_ms(client: RemoteClient, seed: int) -> List[float]:
    """Remote minus local ms of one memory-cache replay, per pair.

    The in-process server shares this process's result cache, so both
    sides of a pair are memory hits of the same entry; the order
    within a pair alternates so neither side always runs second.
    """
    request = _request(seed)
    simulate(request, backend=WORKLOAD["backend"], cache=True)

    def timed(call) -> float:
        start = time.perf_counter()
        call(request, backend=WORKLOAD["backend"], cache=True)
        return (time.perf_counter() - start) * 1e3

    gaps = []
    for pair in range(_REPLAY_PAIRS):
        if pair % 2:
            local_ms = timed(simulate)
            remote_ms = timed(client.simulate)
        else:
            remote_ms = timed(client.simulate)
            local_ms = timed(simulate)
        gaps.append(remote_ms - local_ms)
    return gaps


def test_health_floor_fails_with_nagle_on(monkeypatch):
    """The >= 50 req/s floor catches a server that leaves Nagle on."""
    monkeypatch.setattr(_Handler, "disable_nagle_algorithm", False)
    with SimulationServer(port=0, max_jobs=8) as server:
        client = RemoteClient(server.url)
        rate = _health_requests_per_second(client)
        client.close()
    assert rate < _HEALTH_FLOOR, (
        f"{rate:.0f} health round-trips/sec with Nagle on; the floor "
        f"({_HEALTH_FLOOR}) no longer detects it"
    )


def test_serving_layer_record():
    with SimulationServer(port=0, max_jobs=8) as server:
        client = RemoteClient(server.url)

        # Requests/sec on the cheapest route, sequential round trips.
        requests_per_second = _health_requests_per_second(client)

        # Submit -> first SSE event, best of N (distinct seeds so the
        # result cache can never serve a timing run).
        runs = [
            _time_submit_to_first_event(client, seed=1000 + index)
            for index in range(_REPEATS)
        ]
        first_event = min(run[0] for run in runs)
        first_shard = min(run[1] for run in runs)
        stream_total = min(run[2] for run in runs)

        # Remote-vs-local overhead on the same workload.
        local_start = time.perf_counter()
        local = simulate(
            _request(seed=9999), backend=WORKLOAD["backend"], cache=False
        )
        local_seconds = time.perf_counter() - local_start
        remote_start = time.perf_counter()
        remote = client.simulate(
            _request(seed=9999), backend=WORKLOAD["backend"], cache=False
        )
        remote_seconds = time.perf_counter() - remote_start
        assert len(remote.outcomes) == len(local.outcomes) == WORKLOAD["n_trials"]

        gaps = _replay_gap_ms(client, seed=9998)
        client.close()

    payload = {
        "workload": WORKLOAD,
        "requests_per_second": round(requests_per_second, 1),
        "submit_to_first_event_seconds": round(first_event, 4),
        "submit_to_first_shard_seconds": round(first_shard, 4),
        "sse_stream_total_seconds": round(stream_total, 4),
        "local_simulate_seconds": round(local_seconds, 4),
        "remote_simulate_seconds": round(remote_seconds, 4),
        "remote_overhead_ratio": round(remote_seconds / local_seconds, 3),
        "replay_remote_minus_local_ms": round(statistics.median(gaps), 3),
        "replay_gap_quartiles_ms": [
            round(q, 3) for q in statistics.quantiles(gaps, n=4)[::2]
        ],
        "replay_pairs": _REPLAY_PAIRS,
        "health_roundtrips": _HEALTH_ROUNDTRIPS,
        "repeats": _REPEATS,
    }
    record = update_record("serving", payload)
    print()
    print(json.dumps(record["serving"], indent=2, sort_keys=True))

    assert requests_per_second >= _HEALTH_FLOOR, (
        f"serving layer too slow: {requests_per_second:.0f} health "
        f"round-trips/sec (floor {_HEALTH_FLOOR})"
    )
    assert first_event <= 2.0, (
        f"submit -> first SSE event took {first_event:.2f}s (ceiling 2s)"
    )
