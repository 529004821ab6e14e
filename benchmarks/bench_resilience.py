"""Resilience overhead + recovery gate — updates ``BENCH_sim_backends.json``.

The ISSUE's budget for the fault-injection seams and retry machinery:
resilience must be cheap enough to be on unconditionally.  Two
measurements:

* **fault-free overhead** — the standard batched hot path timed with
  the harness fully disabled (``REPRO_ANTS_FAULTS`` unset: every
  ``maybe_inject`` short-circuits on one flag test) versus *armed but
  empty* (an activated plan with zero rules: env parsing plus a
  per-seam rule scan, the state the CI chaos gate runs the whole
  suite under).  The gate asserts armed-but-empty stays within 5% of
  disabled (plus a small absolute allowance so scheduler jitter on a
  sub-second workload cannot fail the gate on its own — the same
  pattern as ``bench_obs``);
* **recovery time** — a pooled multi-shard job with a worker killed
  mid-shard (``os._exit`` in the worker, breaking the executor for
  every in-flight sibling) timed against the identical unfaulted job.
  The difference is what one worker death costs end to end: pool
  rebuild + backoff + re-execution of the lost shards.  The killed run
  must still produce bit-identical outcomes — recorded, not gated on
  wall-clock, since pool rebuild time is machine-dependent.

Run as pytest (CI's perf step) or directly::

    PYTHONPATH=src python benchmarks/bench_resilience.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bench_sim_backends import update_record

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    deactivate,
)
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.jobs import JobManager

OVERHEAD_WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 100_000,
    "n_trials": 400,
    "backend": "batched",
}

RECOVERY_WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 8,
    "n_agents": 2,
    "target": (6, 4),
    "move_budget": 200_000,
    "n_trials": 8,
    "backend": "batched",
    "workers": 4,
    "killed_shard": 2,
}

_REPEATS = 3
_MAX_OVERHEAD_RATIO = 1.05
_NOISE_ALLOWANCE_SECONDS = 0.25


def _overhead_request(seed: int) -> SimulationRequest:
    spec = OVERHEAD_WORKLOAD
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(spec["distance"]),
        n_agents=spec["n_agents"],
        target=spec["target"],
        move_budget=spec["move_budget"],
        n_trials=spec["n_trials"],
        seed=seed,
    )


def _time_once(seed: int) -> float:
    start = time.perf_counter()
    result = simulate(
        _overhead_request(seed),
        backend=OVERHEAD_WORKLOAD["backend"],
        cache=False,
    )
    elapsed = time.perf_counter() - start
    assert len(result.outcomes) == OVERHEAD_WORKLOAD["n_trials"]
    return elapsed


def _best_of(armed: bool) -> float:
    deactivate()
    if armed:
        activate(FaultPlan(specs=()))
    try:
        # Distinct seeds defeat any residual memoization while keeping
        # the workload statistically identical run to run.
        return min(_time_once(8100 + i) for i in range(_REPEATS))
    finally:
        deactivate()


def _recovery_request() -> SimulationRequest:
    spec = RECOVERY_WORKLOAD
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(spec["distance"]),
        n_agents=spec["n_agents"],
        target=spec["target"],
        move_budget=spec["move_budget"],
        n_trials=spec["n_trials"],
        seed=8200,
    )


def _run_pooled(faulted: bool):
    """(elapsed_seconds, outcomes) for one pooled run of the workload.

    A fresh :class:`JobManager` per run: its pool forks after the plan
    is (de)activated, so the workers see exactly the intended state,
    and pool startup cost is paid identically by both runs.
    """
    deactivate()
    if faulted:
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.shard",
                        kind="kill",
                        match={
                            "shard_index": RECOVERY_WORKLOAD["killed_shard"],
                            "attempt": 0,
                        },
                    ),
                )
            )
        )
    manager = JobManager()
    try:
        start = time.perf_counter()
        job = manager.submit(
            _recovery_request(),
            backend=RECOVERY_WORKLOAD["backend"],
            workers=RECOVERY_WORKLOAD["workers"],
            cache=False,
        )
        result = job.result(timeout=300)
        return time.perf_counter() - start, result.outcomes
    finally:
        deactivate()
        manager.close()


def measure() -> dict:
    # Warm both code paths before timing anything.
    _time_once(8099)
    disabled = _best_of(armed=False)
    armed = _best_of(armed=True)
    clean_seconds, clean_outcomes = _run_pooled(faulted=False)
    killed_seconds, killed_outcomes = _run_pooled(faulted=True)
    assert killed_outcomes == clean_outcomes, (
        "worker-killed run diverged from the unfaulted run — the "
        "recovery measurement would be of a broken recovery"
    )
    return {
        "overhead_workload": OVERHEAD_WORKLOAD,
        "disabled_seconds": round(disabled, 4),
        "armed_empty_seconds": round(armed, 4),
        "overhead_ratio": round(armed / disabled, 4),
        "max_overhead_ratio": _MAX_OVERHEAD_RATIO,
        "noise_allowance_seconds": _NOISE_ALLOWANCE_SECONDS,
        "repeats": _REPEATS,
        "recovery_workload": RECOVERY_WORKLOAD,
        "clean_run_seconds": round(clean_seconds, 4),
        "killed_run_seconds": round(killed_seconds, 4),
        "recovery_seconds": round(max(0.0, killed_seconds - clean_seconds), 4),
        "killed_run_bit_identical": True,
    }


def _gate(payload: dict) -> None:
    disabled = payload["disabled_seconds"]
    armed = payload["armed_empty_seconds"]
    bound = disabled * _MAX_OVERHEAD_RATIO + _NOISE_ALLOWANCE_SECONDS
    assert armed <= bound, (
        f"fault-seam overhead exceeds the 5% budget "
        f"(+{_NOISE_ALLOWANCE_SECONDS}s noise allowance): disabled "
        f"{disabled:.3f}s, armed-but-empty {armed:.3f}s "
        f"({payload['overhead_ratio']:.3f}x, bound {bound:.3f}s)"
    )
    assert payload["killed_run_bit_identical"]


def test_resilience_record():
    payload = measure()
    record = update_record("resilience", payload)
    print()
    print(json.dumps(record["resilience"], indent=2, sort_keys=True))
    _gate(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when the armed-but-empty fault harness "
             "exceeds the 5%% overhead budget against the disabled "
             "baseline, or the worker-killed run is not bit-identical",
    )
    args = parser.parse_args(argv)
    payload = measure()
    record = update_record("resilience", payload)
    print(json.dumps(record["resilience"], indent=2, sort_keys=True))
    if args.check:
        try:
            _gate(payload)
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        print("resilience gate: ok "
              f"(overhead {payload['overhead_ratio']:.3f}x <= "
              f"{_MAX_OVERHEAD_RATIO}x + noise, recovery "
              f"{payload['recovery_seconds']:.3f}s, killed run "
              f"bit-identical)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
