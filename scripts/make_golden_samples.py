#!/usr/bin/env python3
"""Regenerate the golden KS reference samples under ``tests/golden/``.

Each golden file freezes one algorithm family's move-count distribution
as produced by the per-trial ``reference`` engine (bit-exact under the
``derive_seed`` contract, so regeneration is reproducible).  The
committed samples record the backend that generated them in
``generator_backend``; the current ones came from a since-deleted
per-trial vectorized backend and stay as they are until a semantic
sampling change forces regeneration.
The distribution-regression test
(``tests/unit/test_golden_distributions.py``) diffs the ``batched``
backend's output against these recorded samples with a two-sample KS
test instead of re-running the reference engine — backend refactors get
a fast, deterministic distribution gate.

Run from the repository root whenever :data:`repro.sim.cache.CODE_VERSION`
bumps for a *semantic* sampling change (a pure refactor must NOT need
regeneration — that is the point of the test)::

    PYTHONPATH=src python scripts/make_golden_samples.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.server.wire import request_to_wire  # noqa: E402
from repro.sim import AlgorithmSpec, SimulationRequest, simulate  # noqa: E402
from repro.sim.cache import CODE_VERSION  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

#: The backend whose samples are frozen: per-trial, seed-exact.
GENERATOR_BACKEND = "reference"

#: One entry per recorded algorithm family — all six batched-covered
#: families since the kernel extraction (ROADMAP "more golden
#: families" item).  On the step-level reference engine one full
#: regeneration takes about two minutes on a 2-core x86 machine, 100 s
#: of it random_walk; 400 samples give the KS test power without
#: bloating the repository.
FAMILIES = {
    "algorithm1": SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=4,
        target=(8, 8),
        move_budget=500_000,
        n_trials=400,
        seed=20140507,
    ),
    "nonuniform": SimulationRequest(
        algorithm=AlgorithmSpec.nonuniform(8, 2),
        n_agents=4,
        target=(8, 8),
        move_budget=500_000,
        n_trials=400,
        seed=20140507,
    ),
    "uniform": SimulationRequest(
        algorithm=AlgorithmSpec.uniform(1),
        n_agents=4,
        target=(6, 5),
        move_budget=500_000,
        n_trials=400,
        seed=20140507,
        distance_bound=8,
    ),
    "doubly_uniform": SimulationRequest(
        algorithm=AlgorithmSpec.doubly_uniform(1),
        n_agents=4,
        target=(6, 5),
        move_budget=500_000,
        n_trials=400,
        seed=20140507,
        distance_bound=8,
    ),
    "random_walk": SimulationRequest(
        algorithm=AlgorithmSpec.random_walk(),
        n_agents=4,
        target=(6, 5),
        move_budget=200_000,
        n_trials=400,
        seed=20140507,
        distance_bound=8,
    ),
    "feinerman": SimulationRequest(
        algorithm=AlgorithmSpec.feinerman(),
        n_agents=4,
        target=(8, 8),
        move_budget=500_000,
        n_trials=400,
        seed=20140507,
    ),
}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for family, request in FAMILIES.items():
        result = simulate(request, backend=GENERATOR_BACKEND, cache=False)
        samples = [int(value) for value in result.moves_or_budget()]
        payload = {
            "family": family,
            "generator_backend": GENERATOR_BACKEND,
            "code_version": CODE_VERSION,
            "metric": "moves_or_budget",
            "request": request_to_wire(request),
            "samples": samples,
        }
        path = GOLDEN_DIR / f"{family}_moves.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(
            f"{path.relative_to(GOLDEN_DIR.parents[1])}: {len(samples)} "
            f"samples, mean {sum(samples) / len(samples):.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
