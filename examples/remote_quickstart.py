#!/usr/bin/env python3
"""Remote quickstart: serve, submit over HTTP, stream SSE, verify.

Boots a :class:`~repro.server.app.SimulationServer` on an ephemeral
port, submits a small doubly-uniform search through
:class:`~repro.server.client.RemoteClient`, streams shard-level
progress over Server-Sent-Events, and asserts the remote result equals
the local :func:`repro.sim.simulate` call **bit for bit** — the wire
schema round-trips the seed stream exactly and the server executes
through the same job pipeline, so remote and local are the same
computation.

Run:  PYTHONPATH=src python examples/remote_quickstart.py

(Also the CI serving smoke test: a failed equivalence or a dropped
shard exits non-zero.)
"""

from __future__ import annotations

from repro.server import RemoteClient, SimulationServer
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.doubly_uniform(1),
    n_agents=4,
    target=(6, 5),
    move_budget=500_000,
    n_trials=8,
    seed=2014,
    distance_bound=8,
)

# The per-trial reference engine: seed-exact under sharding, so the
# remote (workers=2, two shards) and local (workers=1) runs must agree
# outcome for outcome.
BACKEND = "reference"


def main() -> None:
    print(f"Local run: {REQUEST.n_trials} trials of "
          f"{REQUEST.algorithm.name} on backend {BACKEND!r}...")
    local = simulate(REQUEST, backend=BACKEND, cache=False)

    with SimulationServer(port=0, max_jobs=4) as server:
        print(f"Server up on {server.url} "
              f"(max {server.max_jobs} concurrent jobs)\n")
        client = RemoteClient(server.url)

        job = client.submit(REQUEST, backend=BACKEND, workers=2, cache=False)
        print(f"Submitted {job.job_id}; streaming SSE events:")
        shards = []
        for event, data in job.iter_events():
            if event == "shard":
                shards.append(data)
                progress = data["progress"]
                source = "cache" if data["from_cache"] else "simulated"
                print(f"  shard {data['shard_index']}: trials "
                      f"[{data['trial_start']}, "
                      f"{data['trial_start'] + data['trial_count']}) "
                      f"({source}) — {progress['done_trials']}"
                      f"/{progress['total_trials']} trials done")
            else:
                print(f"  {event}")

        trials_streamed = sum(shard["trial_count"] for shard in shards)
        assert trials_streamed == REQUEST.n_trials, (
            f"SSE delivered {trials_streamed} trials, "
            f"expected {REQUEST.n_trials}"
        )

        remote = job.result()
        assert remote.outcomes == local.outcomes, (
            "remote outcomes differ from the local simulate() call"
        )
        stats = client.stats()

    moves = [outcome.m_moves for outcome in remote.outcomes]
    print(f"\nRemote == local, bit for bit: {len(remote.outcomes)} outcomes, "
          f"M_moves = {moves}")
    print(f"Server handled {stats['requests_total']} HTTP requests, "
          f"{stats['jobs_submitted']} job submission(s), "
          f"{stats['rejected_429']} rejection(s).")


if __name__ == "__main__":
    main()
