"""End-to-end scenario tests stitching the whole library together."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Algorithm1,
    AlgorithmSpec,
    EngineConfig,
    GridWorld,
    NonUniformSearch,
    SearchEngine,
    SimulationRequest,
    UniformSearch,
    simulate,
    speedup,
)
from repro.core.uniform import calibrated_K
from repro.grid.targets import RingTarget, UniformSquareTarget
from repro.lowerbound.certify import certify
from repro.lowerbound.colony import simulate_colony


def _algorithm1_outcomes(distance, n_agents, target, budget, trials, seed):
    """``trials`` Algorithm 1 colonies on the ``batched`` backend, uncached."""
    request = SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance), n_agents=n_agents,
        target=target, move_budget=budget, n_trials=trials, seed=seed,
    )
    return simulate(request, backend="batched", cache=False).outcomes


class TestUpperBoundPipeline:
    def test_colony_beats_single_agent(self):
        """The headline speed-up, measured through the public API."""
        distance, target = 24, (24, 24)
        budget = 10**7
        trials = 120

        def mean_moves(n_agents, seed):
            outcomes = _algorithm1_outcomes(
                distance, n_agents, target, budget, trials, seed
            )
            return float(np.mean(outcomes.moves_or_budget()))

        single = mean_moves(1, 0)
        colony = mean_moves(8, 1)
        measured = speedup(single, colony)
        assert 3.0 <= measured <= 16.0  # ~8, generous CI

    def test_uniform_search_does_not_need_distance(self):
        """One UniformSearch instance handles targets at any distance."""
        algorithm = UniformSearch(n_agents=4, ell=1, K=calibrated_K(1))
        engine = SearchEngine(EngineConfig(move_budget=5_000_000))
        for seed, target in [(1, (2, 0)), (2, (9, -6)), (3, (17, 20))]:
            world = GridWorld(target=target, distance_bound=32)
            outcome = engine.run(algorithm, 4, world, rng=seed)
            assert outcome.found, target

    def test_random_placements_all_found(self, rng):
        placement = UniformSquareTarget(12)
        engine = SearchEngine(EngineConfig(move_budget=3_000_000))
        for trial in range(5):
            target = placement(rng)
            world = GridWorld(target=target, distance_bound=12)
            outcome = engine.run(NonUniformSearch(12, 1), 4, world, rng=trial)
            assert outcome.found, target

    def test_ring_targets_hardest_for_bound(self, rng):
        """Ring placements at exact distance D stay within the envelope."""
        from repro.core import theory

        distance, trials = 16, 60
        placement = RingTarget(distance)
        totals = []
        for trial in range(trials):
            outcome = _algorithm1_outcomes(
                distance, 4, placement(rng), 10**7, 1, trial
            )[0]
            totals.append(outcome.moves_or_budget)
        assert np.mean(totals) <= theory.expected_moves_upper_bound(distance, 4)


class TestModelClaims:
    def test_return_paths_cost_at_most_factor_two(self):
        """Section 2: charging oracle returns at most doubles M_moves."""
        distance, n_agents, target = 8, 2, (5, 4)
        trials = 150

        def mean_moves(count_returns: bool, seed: int) -> float:
            engine = SearchEngine(
                EngineConfig(move_budget=500_000, count_return_moves=count_returns)
            )
            samples = []
            for trial in range(trials):
                world = GridWorld(target=target, distance_bound=distance)
                outcome = engine.run(
                    Algorithm1(distance),
                    n_agents,
                    world,
                    rng=np.random.SeedSequence([seed, trial]),
                )
                samples.append(outcome.moves_or_budget)
            return float(np.mean(samples))

        without = mean_moves(False, 21)
        with_returns = mean_moves(True, 22)
        assert with_returns <= 2.3 * without  # 2x claim + Monte-Carlo slack
        assert with_returns >= 0.9 * without


class TestLowerBoundPipeline:
    def test_certificate_predicts_simulation(self, rng):
        """certify() then simulate_colony(): prediction must hold."""
        from repro.markov.random_automata import biased_walk_automaton

        automaton = biased_walk_automaton([4, 1, 1, 2], ell=3)
        distance = 32
        certificate = certify(automaton, distance, 8)
        result = simulate_colony(
            automaton,
            8,
            certificate.horizon,
            rng,
            window_radius=distance,
            target=certificate.adversarial_placement,
        )
        assert not result.found
        # Coverage stays within an order of magnitude of the envelope.
        assert result.coverage_fraction <= 10 * certificate.predicted_coverage

    def test_above_threshold_algorithm_finds_what_below_misses(self, rng):
        from repro.markov.random_automata import uniform_walk_automaton
        from repro.lowerbound.theory import horizon_moves

        distance = 24
        horizon = horizon_moves(distance, 0.25)
        automaton = uniform_walk_automaton()
        target = (distance, distance)

        below = simulate_colony(
            automaton, 8, horizon, rng, window_radius=distance, target=target
        )
        assert not below.found

        n_contrast = int(np.ceil(256 * distance**0.25))
        outcomes = _algorithm1_outcomes(
            distance, n_contrast, target, horizon, 10, 0
        )
        assert int(np.sum(outcomes.found)) >= 5


class TestDocstringExample:
    def test_package_docstring_quickstart(self):
        """The example in repro.__doc__ must actually work."""
        world = GridWorld(target=(5, 3), distance_bound=8)
        engine = SearchEngine(EngineConfig(move_budget=50_000))
        outcome = engine.run(UniformSearch(n_agents=4), 4, world, rng=7)
        assert outcome.found

    def test_chi_ordering_matches_paper_story(self):
        """nonuniform < algorithm1 < uniform < feinerman in chi, at large D."""
        from repro.baselines.feinerman import FeinermanSearch

        distance = 4096
        nonuniform = NonUniformSearch(distance, 1).selection_complexity().chi
        algorithm1 = Algorithm1(distance).selection_complexity().chi
        uniform = (
            UniformSearch(8, 1).selection_complexity_for_distance(distance).chi
        )
        feinerman = (
            FeinermanSearch(8).selection_complexity_for_distance(distance).chi
        )
        assert nonuniform < algorithm1 < feinerman
        assert nonuniform < uniform < feinerman
