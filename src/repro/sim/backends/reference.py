"""The ``reference`` backend: the faithful step-level engine.

Supports every algorithm the repository defines (anything an
:class:`~repro.sim.backends.base.AlgorithmSpec` can build), tracks
``M_steps`` and per-agent outcomes, and is the ground truth the
vectorized backends are validated against.  It is also the only backend
honoring ``step_budget`` and per-step semantics, so requests that set a
step budget resolve here under ``auto``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.grid.world import GridWorld
from repro.sim.backends.base import SimulationBackend, SimulationRequest
from repro.sim.engine import EngineConfig, SearchEngine
from repro.sim.metrics import OutcomeBatch


class ReferenceBackend(SimulationBackend):
    """Per-trial execution on :class:`~repro.sim.engine.SearchEngine`."""

    name = "reference"

    def supports(self, request: SimulationRequest) -> bool:
        try:
            request.algorithm.build(request.n_agents)
        except Exception:
            return False
        return True

    def auto_priority(self, request: SimulationRequest) -> int:
        # Universal fallback; preferred only when step-level fidelity
        # was explicitly requested.
        return 100 if request.step_budget is not None else 0

    def run(
        self,
        request: SimulationRequest,
        trial_indices: Optional[Sequence[int]] = None,
    ) -> OutcomeBatch:
        indices = range(request.n_trials) if trial_indices is None else trial_indices
        engine = SearchEngine(
            EngineConfig(
                move_budget=request.move_budget, step_budget=request.step_budget
            )
        )
        outcomes = []
        for trial_index in indices:
            algorithm = request.algorithm.build(request.n_agents)
            world = GridWorld(
                target=request.target,
                distance_bound=request.effective_distance_bound,
            )
            outcomes.append(
                engine.run(
                    algorithm,
                    request.n_agents,
                    world,
                    rng=request.trial_seed(trial_index),
                )
            )
        if not outcomes:
            return OutcomeBatch.empty(request.n_agents, request.move_budget)
        return OutcomeBatch.from_outcomes(outcomes)
