"""Selector evaluation benchmark — oracle regret and adaptive savings.

Evaluates the static backend rule (``auto`` resolution by
``auto_priority``, :func:`~repro.sim.backends.registry.resolve_backend`)
with the discipline used for algorithm-selection systems (SNIPPETS.md
Snippet 1 / AutoTSP "manual rules"): measure every candidate backend on
a workload matrix, then compare four policies on the *same* measured
table —

* **oracle** — per workload, the backend that was actually fastest
  (omniscient lower bound);
* **selector** — the backend the static rule picks;
* **single-best** — the one fixed backend with the lowest total time
  across the whole matrix (what a hardcoded default could achieve);
* **random** — the expected time of a uniformly random supporting
  backend (the no-information baseline).

Gates (``--check``, run in CI): the selector's time-weighted regret vs
the oracle must stay <= 10%, and its total time must never exceed the
single-best backend's.  Per-workload relative regrets are recorded too
but not gated — sub-millisecond cells make them noisy.

The companion **adaptive sampling** measurement runs
:func:`~repro.sim.jobs.simulate_adaptive` against the worst-case-
variance fixed-n design: to guarantee a CI half-width ``w`` at any hit
probability, a fixed design must plan ``n = (z/(2w))^2`` trials
(variance bound at p=1/2), while the adaptive run stops as soon as the
realized Agresti–Coull interval is tight.  Gate: >= 2x fewer trials at
equal target width on at least two families.

Both sections land in ``BENCH_sim_backends.json`` (with history + a
machine fingerprint in ``BENCH_history.jsonl``) via the shared
``update_record``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from bench_sim_backends import update_record

from repro.sim import AlgorithmSpec, SimulationRequest
from repro.sim.backends.registry import get_backend, resolve_backend
from repro.sim.jobs import simulate_adaptive
from repro.sim.stats import normal_quantile

SEED = 20140507
REPEATS = 2

#: The backends every matrix workload is measured on.
CANDIDATES = ("batched", "reference")

_SPECS = {
    "algorithm1": lambda: AlgorithmSpec.algorithm1(8),
    "nonuniform": lambda: AlgorithmSpec.nonuniform(8, 1),
    "uniform": lambda: AlgorithmSpec.uniform(1),
    "doubly-uniform": lambda: AlgorithmSpec.doubly_uniform(1),
    "random-walk": AlgorithmSpec.random_walk,
    "feinerman": AlgorithmSpec.feinerman,
}

#: Every selector family at single-trial and batch scale.  Small
#: distance/budget so the per-trial reference engine finishes each cell
#: quickly — the matrix exercises backend *choice*, not kernel scale.
WORKLOADS = tuple(
    {"family": family, "n_trials": n_trials, "move_budget": 20_000}
    for family in sorted(_SPECS)
    for n_trials in (1, 48)
)

ORACLE_REGRET_FLOOR = 0.10
ADAPTIVE_SAVINGS_FLOOR = 2.0
ADAPTIVE_CONFIDENCE = 0.95
ADAPTIVE_TARGET_HALF_WIDTH = 0.04
ADAPTIVE_FAMILIES = ("algorithm1", "feinerman")


def _workload_request(workload: dict) -> SimulationRequest:
    return SimulationRequest(
        algorithm=_SPECS[workload["family"]](),
        n_agents=4,
        target=(8, 8),
        move_budget=workload["move_budget"],
        n_trials=workload["n_trials"],
        seed=SEED,
        seed_keys=(7,),
    )


def _time_backend(backend_name: str, request: SimulationRequest) -> float:
    """Best-of-REPEATS direct ``backend.run`` wall-clock (no cache)."""
    backend = get_backend(backend_name)
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcomes = backend.run(request)
        best = min(best, time.perf_counter() - start)
        assert len(outcomes) == request.n_trials
    return best


def measure_selector() -> dict:
    """Measure the matrix and score the four policies."""
    times = []  # one {backend: seconds} per workload
    choices = []
    for workload in WORKLOADS:
        request = _workload_request(workload)
        times.append({
            name: _time_backend(name, request) for name in CANDIDATES
        })
        choices.append(resolve_backend(request).name)

    oracle_total = sum(min(row.values()) for row in times)
    selector_total = sum(
        row[choice] for row, choice in zip(times, choices)
    )
    single_best_name = min(
        CANDIDATES, key=lambda name: sum(row[name] for row in times)
    )
    single_best_total = sum(row[single_best_name] for row in times)
    random_total = sum(
        sum(row.values()) / len(row) for row in times
    )

    rows = []
    regrets = []
    for workload, row, choice in zip(WORKLOADS, times, choices):
        oracle_backend = min(row, key=row.get)
        regret = row[choice] / row[oracle_backend] - 1.0
        regrets.append(regret)
        rows.append({
            **workload,
            "oracle_backend": oracle_backend,
            "oracle_seconds": round(row[oracle_backend], 6),
            "selector_backend": choice,
            "selector_seconds": round(row[choice], 6),
            "relative_regret": round(regret, 4),
        })

    return {
        "candidates": list(CANDIDATES),
        "policy": "auto_priority",
        "workloads": rows,
        "policies_total_seconds": {
            "oracle": round(oracle_total, 6),
            "selector": round(selector_total, 6),
            "single_best": round(single_best_total, 6),
            "random": round(random_total, 6),
        },
        "single_best_backend": single_best_name,
        "total_time_regret": round(selector_total / oracle_total - 1.0, 4),
        "mean_relative_regret": round(sum(regrets) / len(regrets), 4),
        "exact_picks": sum(
            1 for row, choice in zip(times, choices)
            if choice == min(row, key=row.get)
        ),
        "regret_floor": ORACLE_REGRET_FLOOR,
    }


def _fixed_n_trials(confidence: float, half_width: float) -> int:
    """Worst-case-variance fixed design: n guaranteeing hw <= target."""
    z = normal_quantile(0.5 + confidence / 2.0)
    return int(math.ceil((z / (2.0 * half_width)) ** 2))


def measure_adaptive() -> dict:
    """Adaptive-vs-fixed trial consumption at equal target CI width."""
    fixed_n = _fixed_n_trials(ADAPTIVE_CONFIDENCE, ADAPTIVE_TARGET_HALF_WIDTH)
    families = {}
    for family in ADAPTIVE_FAMILIES:
        request = SimulationRequest(
            algorithm=_SPECS[family](),
            n_agents=4,
            target=(8, 8),
            move_budget=50_000,
            n_trials=fixed_n,
            seed=SEED,
            seed_keys=(11,),
        )
        run = simulate_adaptive(
            request,
            metric="hit_probability",
            target_half_width=ADAPTIVE_TARGET_HALF_WIDTH,
            confidence=ADAPTIVE_CONFIDENCE,
            batch_size=32,
            cache=False,
        )
        families[family] = {
            "trials_used": run.trials_used,
            "converged": run.converged,
            "estimate": round(run.estimate, 4),
            "half_width": round(run.half_width, 4),
            "savings_x": round(fixed_n / run.trials_used, 2),
        }
    return {
        "confidence": ADAPTIVE_CONFIDENCE,
        "target_half_width": ADAPTIVE_TARGET_HALF_WIDTH,
        "fixed_n_trials": fixed_n,
        "metric": "hit_probability",
        "batch_size": 32,
        "families": families,
        "min_savings_x": min(
            entry["savings_x"] for entry in families.values()
        ),
        "savings_floor": ADAPTIVE_SAVINGS_FLOOR,
    }


def assert_gates(selector_payload: dict, adaptive_payload: dict) -> None:
    regret = selector_payload["total_time_regret"]
    assert regret <= ORACLE_REGRET_FLOOR, (
        f"selector regret vs oracle must stay <= "
        f"{ORACLE_REGRET_FLOOR:.0%}, got {regret:.1%}"
    )
    totals = selector_payload["policies_total_seconds"]
    assert totals["selector"] <= totals["single_best"] + 1e-9, (
        f"selector ({totals['selector']}s) must never lose to the "
        f"single best backend "
        f"({selector_payload['single_best_backend']}: "
        f"{totals['single_best']}s)"
    )
    converged = [
        family
        for family, entry in adaptive_payload["families"].items()
        if entry["converged"]
        and entry["savings_x"] >= ADAPTIVE_SAVINGS_FLOOR
    ]
    assert len(converged) >= 2, (
        f"adaptive sampling must save >= {ADAPTIVE_SAVINGS_FLOOR}x trials "
        f"vs the fixed-n design on at least two families, got "
        f"{adaptive_payload['families']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when a selector or adaptive gate is violated",
    )
    args = parser.parse_args(argv)

    selector_payload = measure_selector()
    adaptive_payload = measure_adaptive()
    update_record("selector", selector_payload)
    update_record("adaptive_sampling", adaptive_payload)
    print(json.dumps(
        {"selector": selector_payload, "adaptive_sampling": adaptive_payload},
        indent=2, sort_keys=True,
    ))
    if not args.check:
        return 0
    try:
        assert_gates(selector_payload, adaptive_payload)
    except AssertionError as error:
        print(f"GATE FAILED: {error}", file=sys.stderr)
        return 1
    totals = selector_payload["policies_total_seconds"]
    print(
        f"selector gates OK: regret "
        f"{selector_payload['total_time_regret']:.1%} vs oracle "
        f"({selector_payload['exact_picks']}/{len(WORKLOADS)} exact picks), "
        f"selector {totals['selector']}s <= single-best "
        f"{totals['single_best']}s "
        f"({selector_payload['single_best_backend']}); adaptive saves "
        f">= {adaptive_payload['min_savings_x']}x trials "
        f"(fixed n={adaptive_payload['fixed_n_trials']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
