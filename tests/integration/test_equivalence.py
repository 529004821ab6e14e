"""Cross-form equivalence: process vs automaton vs vectorized simulators.

The same algorithm exists as pseudocode-style generator and explicit
automaton, and the lower-bound colony simulator vectorizes automata;
these tests check the forms produce statistically indistinguishable
behaviour, which is the foundation the benchmark sweeps stand on.  The
``batched`` kernels are checked against the engine in
``test_backend_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import Action
from repro.core.algorithm1 import Algorithm1, build_algorithm1_automaton
from repro.core.automaton import AutomatonAlgorithm
from repro.core.nonuniform import NonUniformSearch
from repro.grid.world import GridWorld
from repro.sim.engine import EngineConfig, SearchEngine
from repro.sim.rng import spawn_generators


def engine_mean_moves(algorithm, n_agents, target, budget, trials, seed):
    engine = SearchEngine(EngineConfig(move_budget=budget))
    samples = []
    for trial in range(trials):
        world = GridWorld(target=target, distance_bound=64)
        outcome = engine.run(
            algorithm, n_agents, world, rng=np.random.SeedSequence([seed, trial])
        )
        samples.append(outcome.moves_or_budget)
    return float(np.mean(samples))


class TestProcessVsAutomaton:
    def test_algorithm1_move_distribution_matches_automaton(self, rng_factory):
        """Iteration lengths and direction mix agree across forms."""
        distance = 6
        trials = 4000

        def iteration_lengths(algorithm, seed):
            generator = rng_factory(seed)
            process = algorithm.process(generator)
            lengths = []
            current = 0
            while len(lengths) < trials:
                action = next(process)
                if action is Action.ORIGIN:
                    lengths.append(current)
                    current = 0
                elif action.is_move:
                    current += 1
            return lengths

        process_lengths = iteration_lengths(Algorithm1(distance), 7)
        automaton_lengths = iteration_lengths(
            AutomatonAlgorithm(build_algorithm1_automaton(distance)), 8
        )
        assert np.mean(process_lengths) == pytest.approx(
            np.mean(automaton_lengths), rel=0.08
        )
        assert np.std(process_lengths) == pytest.approx(
            np.std(automaton_lengths), rel=0.15
        )

    def test_automaton_engine_finds_targets_like_process_engine(self):
        distance, target = 8, (3, 2)
        budget = 300_000
        trials = 150
        via_process = engine_mean_moves(
            Algorithm1(distance), 2, target, budget, trials, 9
        )
        via_automaton = engine_mean_moves(
            AutomatonAlgorithm(build_algorithm1_automaton(distance)),
            2,
            target,
            budget,
            trials,
            10,
        )
        assert via_process == pytest.approx(via_automaton, rel=0.25)

    def test_nonuniform_product_automaton_matches_process(self):
        """Theorem 3.7's machine: same move behaviour as the pseudocode."""
        distance, target = 8, (2, 2)
        budget = 400_000
        trials = 150
        algorithm = NonUniformSearch(distance, 1)
        via_process = engine_mean_moves(algorithm, 2, target, budget, trials, 11)
        via_automaton = engine_mean_moves(
            AutomatonAlgorithm(algorithm.automaton()), 2, target, budget, trials, 12
        )
        assert via_process == pytest.approx(via_automaton, rel=0.25)


class TestColonyVsEngine:
    def test_vectorized_colony_matches_engine_for_automata(self, rng):
        """The lower-bound colony simulator agrees with the engine."""
        from repro.lowerbound.colony import simulate_colony
        from repro.markov.random_automata import uniform_walk_automaton

        automaton = uniform_walk_automaton()
        target = (2, 1)
        rounds = 4000
        trials = 60

        colony_rates = []
        for trial in range(trials):
            result = simulate_colony(
                automaton, 4, rounds, np.random.default_rng(100 + trial),
                window_radius=8, target=target,
            )
            colony_rates.append(result.found)

        engine = SearchEngine(
            EngineConfig(move_budget=rounds, step_budget=rounds)
        )
        engine_rates = []
        for trial in range(trials):
            world = GridWorld(target=target, distance_bound=8)
            outcome = engine.run(
                AutomatonAlgorithm(automaton),
                4,
                world,
                rng=spawn_generators(500 + trial, 4),
            )
            engine_rates.append(outcome.found)

        assert np.mean(colony_rates) == pytest.approx(
            np.mean(engine_rates), abs=0.15
        )
