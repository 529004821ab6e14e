"""Equivalence and behaviour tests for the doubly uniform batched kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.doubly_uniform import DoublyUniformSearch
from repro.core.uniform import calibrated_K
from repro.grid.world import GridWorld
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.engine import EngineConfig, SearchEngine


def _batched(algorithm, n_agents, target, move_budget, n_trials=1, seed=0):
    request = SimulationRequest(
        algorithm=algorithm,
        n_agents=n_agents,
        target=target,
        move_budget=move_budget,
        n_trials=n_trials,
        seed=seed,
    )
    return simulate(request, backend="batched", cache=False)


class TestFastDoublyUniform:
    def test_matches_engine_distributionally(self):
        """Engine (faithful process) vs batched kernel: mean agreement."""
        K = calibrated_K(1)
        target = (3, 3)
        budget = 3_000_000
        trials = 80
        n_agents = 2

        engine = SearchEngine(EngineConfig(move_budget=budget))
        algorithm = DoublyUniformSearch(ell=1, K=K)
        engine_samples = []
        for trial in range(trials):
            world = GridWorld(target=target, distance_bound=8)
            outcome = engine.run(
                algorithm, n_agents, world,
                rng=np.random.SeedSequence([61, trial]),
            )
            engine_samples.append(float(outcome.moves_or_budget))

        fast_samples = _batched(
            AlgorithmSpec.doubly_uniform(1, K=K), n_agents, target, budget,
            n_trials=trials, seed=62,
        ).moves_or_budget()
        assert np.mean(engine_samples) == pytest.approx(
            np.mean(fast_samples), rel=0.3
        )

    def test_unknown_n_costs_more_than_known_n(self):
        """The [12]-style lift pays a bounded premium over Algorithm 5."""
        K = calibrated_K(1)
        target = (6, 5)
        budget = 20_000_000
        trials = 60
        n_agents = 4

        known = np.mean(
            _batched(
                AlgorithmSpec.uniform(1, K=K), n_agents, target, budget,
                n_trials=trials, seed=63,
            ).moves_or_budget()
        )
        unknown = np.mean(
            _batched(
                AlgorithmSpec.doubly_uniform(1, K=K), n_agents, target, budget,
                n_trials=trials, seed=64,
            ).moves_or_budget()
        )
        # The doubly uniform variant re-runs earlier phases per epoch;
        # the premium must exist but stay within a polylog-ish factor.
        assert unknown <= 50 * known
        assert unknown >= 0.2 * known
