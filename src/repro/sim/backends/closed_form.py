"""The ``closed_form`` backend: per-trial vectorized simulators.

Absorbs the historical ``fast_*`` entry points behind the uniform
request interface: each supported algorithm maps to the closed-form
simulator in :mod:`repro.sim.fast` (or the Feinerman one in
:mod:`repro.baselines.feinerman`).  Trial ``t`` draws from
``derive_seed(seed, *seed_keys, t)`` with the same generator the
hand-rolled experiment loops used, so migrating a caller to this
backend preserves its exact random stream and therefore its exact
numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.sim.backends.base import SimulationBackend, SimulationRequest
from repro.sim.metrics import OutcomeBatch, SearchOutcome


def _run_algorithm1(request: SimulationRequest, rng: np.random.Generator):
    from repro.sim.fast import fast_algorithm1

    return fast_algorithm1(
        request.algorithm.distance,
        request.n_agents,
        request.target,
        rng,
        request.move_budget,
    )


def _run_nonuniform(request: SimulationRequest, rng: np.random.Generator):
    from repro.sim.fast import fast_nonuniform

    return fast_nonuniform(
        request.algorithm.distance,
        request.algorithm.ell or 1,
        request.n_agents,
        request.target,
        rng,
        request.move_budget,
    )


def _run_uniform(request: SimulationRequest, rng: np.random.Generator):
    from repro.sim.fast import fast_uniform

    kwargs = {}
    if request.algorithm.max_phase is not None:
        kwargs["max_phase"] = request.algorithm.max_phase
    return fast_uniform(
        request.n_agents,
        request.algorithm.ell or 1,
        request.algorithm.K,
        request.target,
        rng,
        request.move_budget,
        **kwargs,
    )


def _run_doubly_uniform(request: SimulationRequest, rng: np.random.Generator):
    from repro.sim.fast import fast_doubly_uniform

    return fast_doubly_uniform(
        request.n_agents,
        request.algorithm.ell or 1,
        request.algorithm.K,
        request.target,
        rng,
        request.move_budget,
    )


def _run_random_walk(request: SimulationRequest, rng: np.random.Generator):
    from repro.sim.fast import fast_random_walk

    return fast_random_walk(
        request.n_agents, request.target, rng, request.move_budget
    )


def _run_feinerman(request: SimulationRequest, rng: np.random.Generator):
    from repro.baselines.feinerman import fast_feinerman

    return fast_feinerman(
        request.n_agents, request.target, rng, request.move_budget
    )


_SIMULATORS: Dict[
    str, Callable[[SimulationRequest, np.random.Generator], SearchOutcome]
] = {
    "algorithm1": _run_algorithm1,
    "nonuniform": _run_nonuniform,
    "uniform": _run_uniform,
    "doubly-uniform": _run_doubly_uniform,
    "random-walk": _run_random_walk,
    "feinerman": _run_feinerman,
}


class ClosedFormBackend(SimulationBackend):
    """Dispatch to the closed-form ``fast_*`` simulators, one trial at a time."""

    name = "closed_form"

    def supports(self, request: SimulationRequest) -> bool:
        return self.support_reason(request) is None

    def support_reason(self, request: SimulationRequest) -> Optional[str]:
        if request.step_budget is not None:
            # The fast simulators advance whole iterations and cannot
            # enforce a Markov-step budget.
            return "step_budget set (only reference tracks M_steps)"
        if request.algorithm.name not in _SIMULATORS:
            return (
                f"no closed-form simulator for algorithm "
                f"{request.algorithm.name!r}"
            )
        return None

    def auto_priority(self, request: SimulationRequest) -> int:
        # Best single-trial choice; multi-trial batches go to `batched`
        # when it supports the algorithm.
        return 10

    def run(
        self,
        request: SimulationRequest,
        trial_indices: Optional[Sequence[int]] = None,
    ) -> OutcomeBatch:
        simulate_one = _SIMULATORS[request.algorithm.name]
        indices = range(request.n_trials) if trial_indices is None else trial_indices
        outcomes = [
            simulate_one(
                request, np.random.default_rng(request.trial_seed(trial_index))
            )
            for trial_index in indices
        ]
        if not outcomes:
            return OutcomeBatch.empty(request.n_agents, request.move_budget)
        return OutcomeBatch.from_outcomes(outcomes)
