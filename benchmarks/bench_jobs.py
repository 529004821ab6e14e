"""Async job-layer benchmark — updates ``BENCH_sim_backends.json``.

Measures what the async job layer costs and what it buys on the
standard workload (Algorithm 1 colonies hunting the corner target,
the same request shape as ``bench_sim_backends.py``):

* **overhead** — ``simulate()`` runs its job on the calling thread,
  ``simulate_async()`` hands it to a driver thread and streams its
  shards; the gate asserts the median async/blocking wall-clock ratio
  over interleaved pairs stays within 1.10;
* **submit -> first shard latency** — how quickly a streaming consumer
  (``iter_results()``) sees its first completed trial shard after
  submission, the number an incremental dashboard or HTTP front end
  would care about.

Timing runs bypass the result cache — a cached replay would measure
the cache, not the job layer.  The workload is sized so one call takes
tens of milliseconds: a driver-thread hop that costs a tenth of that
shows in the ratio instead of drowning in scheduler noise.  Each pair
alternates which path runs first.
"""

from __future__ import annotations

import json
import statistics
import time

from bench_sim_backends import update_record
from repro.sim import AlgorithmSpec, SimulationRequest, simulate, simulate_async

WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 100_000,
    "n_trials": 3000,
    "backend": "batched",
}

_PAIRS = 11
_MAX_OVERHEAD_RATIO = 1.10


def _request() -> SimulationRequest:
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(WORKLOAD["distance"]),
        n_agents=WORKLOAD["n_agents"],
        target=WORKLOAD["target"],
        move_budget=WORKLOAD["move_budget"],
        n_trials=WORKLOAD["n_trials"],
        seed=20140507,
    )


def _time_blocking() -> float:
    start = time.perf_counter()
    result = simulate(_request(), backend=WORKLOAD["backend"], cache=False)
    elapsed = time.perf_counter() - start
    assert len(result.outcomes) == WORKLOAD["n_trials"]
    return elapsed


def _time_async() -> tuple:
    """(total wall-clock, submit->first-shard latency) for one run."""
    start = time.perf_counter()
    job = simulate_async(_request(), backend=WORKLOAD["backend"], cache=False)
    first_shard = None
    trials_seen = 0
    for shard in job.iter_results():
        if first_shard is None:
            first_shard = time.perf_counter() - start
        trials_seen += shard.trial_count
    job.result()
    elapsed = time.perf_counter() - start
    assert trials_seen == WORKLOAD["n_trials"]
    return elapsed, first_shard


def test_job_layer_overhead_record():
    _time_blocking()  # warm the kernels and the manager before timing
    blocking, async_runs = [], []
    for pair in range(_PAIRS):
        if pair % 2:
            async_runs.append(_time_async())
            blocking.append(_time_blocking())
        else:
            blocking.append(_time_blocking())
            async_runs.append(_time_async())
    async_seconds = [total for total, _ in async_runs]
    ratios = [a / b for a, b in zip(async_seconds, blocking)]
    overhead = statistics.median(ratios)
    payload = {
        "workload": WORKLOAD,
        "blocking_seconds": round(statistics.median(blocking), 4),
        "async_streaming_seconds": round(statistics.median(async_seconds), 4),
        "submit_to_first_shard_seconds": round(
            statistics.median(first for _, first in async_runs), 4
        ),
        "async_overhead_ratio": round(overhead, 3),
        "pairs": _PAIRS,
    }
    record = update_record("jobs", payload)
    print()
    print(json.dumps(record["jobs"], indent=2, sort_keys=True))
    assert overhead <= _MAX_OVERHEAD_RATIO, (
        f"async streaming must stay within {_MAX_OVERHEAD_RATIO}x of the "
        f"blocking path: median ratio {overhead:.3f} over {_PAIRS} pairs "
        f"({', '.join(f'{r:.3f}' for r in ratios)})"
    )
