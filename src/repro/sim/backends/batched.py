"""The ``batched`` backend: many colonies x many trials in one kernel pass.

This backend flattens the whole request — ``n_trials`` colonies of
``n_agents`` agents — into one pool of (trial, agent) pairs and samples
*every active pair's next iteration in a single draw*.  Since the
kernel extraction the actual math lives in :mod:`repro.sim.kernels`:
six per-family kernels written directly against NumPy.

Iterations are drawn from exactly the process distribution, so outcomes
are equal in distribution to the ``reference`` engine — the
integration tests and the golden KS gates check this statistically for
every supported algorithm.  Unlike the per-trial backends, the whole
batch shares one generator stream, so individual trials are not
separately re-seedable (request-level determinism still holds).

Diagnostics are per colony: each trial carries its own
:class:`~repro.sim.metrics.FastRunStats` — the iterations its own
pairs executed and the rounds in which it still had active pairs.  The
kernel's four result arrays become the columns of the returned
:class:`~repro.sim.metrics.OutcomeBatch` directly; no per-trial record
is built.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sim.backends.base import SimulationBackend, SimulationRequest
from repro.sim.kernels import SENTINEL, numpy_namespace, run_family
from repro.sim.metrics import ABSENT, OutcomeBatch

#: Families with a batch kernel (see :func:`repro.sim.kernels.run_family`).
BATCHED_ALGORITHMS = (
    "algorithm1",
    "nonuniform",
    "uniform",
    "doubly-uniform",
    "random-walk",
    "feinerman",
)


class BatchedBackend(SimulationBackend):
    """Whole-batch vectorized simulation with the NumPy kernels."""

    name = "batched"

    def support_reason(self, request: SimulationRequest) -> Optional[str]:
        if request.step_budget is not None:
            return "step_budget set (only reference tracks M_steps)"
        if request.algorithm.name not in BATCHED_ALGORITHMS:
            return f"no batch kernel for algorithm {request.algorithm.name!r}"
        return None

    def supports(self, request: SimulationRequest) -> bool:
        return self.support_reason(request) is None

    def auto_priority(self, request: SimulationRequest) -> int:
        # Every request of a supported family, single trials included;
        # a step budget reaches the reference engine via supports().
        return 30

    def run(
        self,
        request: SimulationRequest,
        trial_indices: Optional[Sequence[int]] = None,
    ) -> OutcomeBatch:
        if trial_indices is None:
            first, n_trials = 0, request.n_trials
        else:
            indices = list(trial_indices)
            first, n_trials = (indices[0] if indices else 0), len(indices)
        if not n_trials:
            return OutcomeBatch.empty(request.n_agents, request.move_budget)
        xp = numpy_namespace()
        # One pooled stream for the whole batch, anchored at the first
        # trial's address so sharded runs stay deterministic.
        rng = xp.rng(request.trial_seed(first))
        best, finder, iters, rounds = run_family(xp, rng, request, n_trials)
        found = best != SENTINEL
        return OutcomeBatch(
            request.n_agents,
            request.move_budget,
            np.where(found, best, ABSENT),
            np.where(found, finder, ABSENT),
            iters,
            rounds,
        )
