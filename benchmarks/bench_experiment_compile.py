"""Experiment-compiler benchmark — compiled report vs sequential loop.

Times the two ways to regenerate the full smoke-scale report
(E01–E16):

* **sequential** — the historical loop: each experiment's ``run()``
  one after another, single process;
* **compiled** — ``compile_program`` + ``execute_program``: declared
  grid points bound to requests and dedup'd across experiments, then
  every experiment run whole in one pool of worker processes, slowest
  first.

Each side executes against its own fresh cache directory, so neither
borrows the other's results, and the compiled results are asserted
equal to the sequential ones — the speedup is never bought with a
different answer.

The two sides run in ``PAIRS`` interleaved pairs (the side that goes
first alternates from pair to pair), and the gated speedup is the
median of the per-pair ratios.  A single pair spread too widely to
gate on: two runs of the same tree read 1.449x and 1.923x against the
1.3x floor on 2 cores, and three pairs still straddled the floor.
Every ratio and the quartile spread are printed and recorded.

Gates (``--check``, run in CI) are tiered by core count, because the
compiled path's wins are parallelism (the dedup stage is a no-op at
smoke scale, where no two experiments declare the same point):

* >= 4 cores: compiled must be >= 2.0x faster;
* 2–3 cores: >= 1.3x;
* 1 core: no material regression (>= 0.8x) — the compiled path still
  pays its compile and replay overhead without any cores to spend it on.

Two invariants are gated at every tier:

* **dedup** — recompiling against the warmed cache must mark every
  unique point cache-satisfied, and re-executing the program must
  perform zero backend runs (proven via
  :func:`repro.sim.jobs.backend_run_count`);
* **identity** — every compiled ``ExperimentResult`` equals its
  sequential counterpart, field for field.

The section lands in ``BENCH_sim_backends.json`` (with a dated
snapshot in ``BENCH_history.jsonl``) via the shared ``update_record``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from bench_sim_backends import update_record

from repro.experiments import REGISTRY, SPEC_REGISTRY
from repro.experiments.base import DEFAULT_SEED
from repro.experiments.compiler import compile_program, execute_program
from repro.sim.cache import configure_cache, get_cache
from repro.sim.jobs import backend_run_count
from repro.sim.selector import usable_cores

SCALE = "smoke"

#: (minimum cores, required speedup) — first matching row applies.
SPEEDUP_TIERS = ((4, 2.0), (2, 1.3), (1, 0.8))

#: Interleaved (sequential, compiled) pairs behind the median speedup.
PAIRS = 7


def required_speedup(cpu_count: int) -> float:
    for floor, speedup in SPEEDUP_TIERS:
        if cpu_count >= floor:
            return speedup
    return SPEEDUP_TIERS[-1][1]


def run_sequential(cache_dir: str) -> dict:
    """The historical loop: every experiment's ``run()``, in order."""
    configure_cache(directory=cache_dir)
    results = {}
    started = time.perf_counter()
    for key in sorted(REGISTRY):
        results[key] = REGISTRY[key](scale=SCALE, seed=DEFAULT_SEED)
    return {
        "seconds": time.perf_counter() - started,
        "results": results,
    }


def run_compiled(cache_dir: str, workers: int) -> dict:
    """The compiled program: compile, execute, replay-check the dedup."""
    configure_cache(directory=cache_dir)
    specs = [SPEC_REGISTRY[key](SCALE) for key in sorted(SPEC_REGISTRY)]
    started = time.perf_counter()
    program = compile_program(specs, SCALE, DEFAULT_SEED)
    report = execute_program(program, workers=workers)
    elapsed = time.perf_counter() - started

    # Warm-replay invariant: the same program compiled again must be
    # fully cache-satisfied and execute without touching a backend.
    replay_program = compile_program(specs, SCALE, DEFAULT_SEED)
    runs_before = backend_run_count()
    replay = execute_program(replay_program, workers=1)
    return {
        "seconds": elapsed,
        "results": report.results,
        "stats": program.stats,
        "warm_seconds": report.warm_seconds,
        "finalize_seconds": report.finalize_seconds,
        "points_executed": report.points_executed,
        "replay_cache_satisfied": replay_program.stats.cache_satisfied,
        "replay_unique_points": replay_program.stats.unique_points,
        "replay_backend_runs": backend_run_count() - runs_before,
        "replay_points_executed": replay.points_executed,
    }


def run_pair(index: int, workers: int):
    """One (sequential, compiled) pair, each against a fresh cache; the
    side that runs first alternates with ``index``."""
    previous_cache = get_cache().directory
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sides = {
                "sequential": lambda: run_sequential(
                    os.path.join(tmp, "sequential")
                ),
                "compiled": lambda: run_compiled(
                    os.path.join(tmp, "compiled"), workers
                ),
            }
            order = ("sequential", "compiled")
            if index % 2:
                order = order[::-1]
            done = {name: sides[name]() for name in order}
            return done["sequential"], done["compiled"]
    finally:
        configure_cache(directory=previous_cache)


def measure(workers: int) -> dict:
    runs = [run_pair(index, workers) for index in range(PAIRS)]
    ratios = [
        sequential["seconds"] / compiled["seconds"]
        for sequential, compiled in runs
    ]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    mismatched = sorted({
        key
        for sequential, compiled in runs
        for key in REGISTRY
        if compiled["results"][key] != sequential["results"][key]
    })
    failed_checks = sorted({
        key
        for _, compiled in runs
        for key, result in compiled["results"].items()
        if not result.all_passed
    })
    stats = runs[0][1]["stats"]

    def median_of(side: int, name: str) -> float:
        return round(statistics.median(run[side][name] for run in runs), 3)

    return {
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "experiments": len(REGISTRY),
        "cpu_count": usable_cores(),
        "workers": workers,
        "pairs": PAIRS,
        "sequential_seconds": median_of(0, "seconds"),
        "compiled_seconds": median_of(1, "seconds"),
        "compiled_warm_seconds": median_of(1, "warm_seconds"),
        "compiled_finalize_seconds": median_of(1, "finalize_seconds"),
        "speedup_x": round(statistics.median(ratios), 3),
        "speedup_ratios": [round(ratio, 3) for ratio in ratios],
        "speedup_quartiles": [round(q1, 3), round(q3, 3)],
        "required_speedup_x": required_speedup(usable_cores()),
        "speedup_tiers": [list(tier) for tier in SPEEDUP_TIERS],
        "declared_points": stats.declared_points,
        "unique_points": stats.unique_points,
        "points_executed": runs[0][1]["points_executed"],
        "replay_cache_satisfied": [
            compiled["replay_cache_satisfied"] for _, compiled in runs
        ],
        "replay_unique_points": [
            compiled["replay_unique_points"] for _, compiled in runs
        ],
        "replay_backend_runs": max(
            compiled["replay_backend_runs"] for _, compiled in runs
        ),
        "replay_points_executed": max(
            compiled["replay_points_executed"] for _, compiled in runs
        ),
        "mismatched_experiments": mismatched,
        "failed_checks": failed_checks,
    }


def assert_gates(payload: dict) -> None:
    assert not payload["mismatched_experiments"], (
        f"compiled results must equal sequential results, differ on: "
        f"{payload['mismatched_experiments']}"
    )
    assert not payload["failed_checks"], (
        f"compiled experiments report failing checks: "
        f"{payload['failed_checks']}"
    )
    assert (
        payload["replay_cache_satisfied"] == payload["replay_unique_points"]
    ), (
        f"warm recompile must mark every unique point cache-satisfied "
        f"({payload['replay_cache_satisfied']}/"
        f"{payload['replay_unique_points']})"
    )
    assert payload["replay_backend_runs"] == 0, (
        f"warm replay must perform zero backend runs, did "
        f"{payload['replay_backend_runs']}"
    )
    assert payload["replay_points_executed"] == 0, (
        f"warm replay must execute zero points, did "
        f"{payload['replay_points_executed']}"
    )
    speedup, floor = payload["speedup_x"], payload["required_speedup_x"]
    assert speedup >= floor, (
        f"compiled report must be >= {floor}x the sequential loop on "
        f"{payload['cpu_count']} core(s), got a median of {speedup}x over "
        f"{payload['pairs']} pairs {payload['speedup_ratios']} "
        f"(sequential {payload['sequential_seconds']}s, compiled "
        f"{payload['compiled_seconds']}s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when a speedup or invariant gate is violated",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="compiled-path worker processes (default: the usable cores)",
    )
    args = parser.parse_args(argv)

    workers = args.workers or usable_cores()
    payload = measure(workers)
    update_record("experiment_compile", payload)
    print(json.dumps({"experiment_compile": payload}, indent=2, sort_keys=True))
    if not args.check:
        return 0
    try:
        assert_gates(payload)
    except AssertionError as error:
        print(f"GATE FAILED: {error}", file=sys.stderr)
        return 1
    q1, q3 = payload["speedup_quartiles"]
    print(
        f"experiment-compile gates OK: median {payload['speedup_x']}x vs "
        f"the sequential loop over {payload['pairs']} interleaved pairs "
        f"(ratios {payload['speedup_ratios']}, quartiles {q1}-{q3}; floor "
        f"{payload['required_speedup_x']}x at "
        f"{payload['cpu_count']} cores), {payload['declared_points']} "
        f"declared -> {payload['unique_points']} unique points, warm "
        f"replay 100% cache-satisfied with 0 backend runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
