"""Unit tests for markov.hitting, grid.multi, core.doubly_uniform."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import Action
from repro.core.doubly_uniform import DoublyUniformSearch
from repro.errors import AnalysisError, InvalidParameterError
from repro.grid.multi import MultiTargetWorld, forage_until_all_found
from repro.markov.chain import MarkovChain
from repro.markov.hitting import (
    absorption_time_distribution_tail,
    expected_absorption_time,
    expected_hitting_times,
    expected_return_time,
    fundamental_matrix,
    mean_visits_before_absorption,
)
from repro.markov.stationary import stationary_distribution


def absorbing_chain(alpha: float = 0.4) -> MarkovChain:
    """State 0 transient (stays w.p. 1-alpha), state 1 absorbing."""
    return MarkovChain(np.array([[1 - alpha, alpha], [0.0, 1.0]]))


class TestHittingTimes:
    def test_absorption_time_geometric(self):
        # Expected steps to leave state 0 = 1/alpha.
        chain = absorbing_chain(0.25)
        assert expected_absorption_time(chain) == pytest.approx(4.0)

    def test_absorption_time_zero_if_start_recurrent(self):
        chain = MarkovChain(np.array([[1.0]]))
        assert expected_absorption_time(chain) == 0.0

    def test_fundamental_matrix_values(self):
        chain = absorbing_chain(0.5)
        n_matrix = fundamental_matrix(chain)
        assert n_matrix.shape == (1, 1)
        assert n_matrix[0, 0] == pytest.approx(2.0)  # visits to state 0

    def test_fundamental_matrix_requires_transients(self):
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(AnalysisError):
            fundamental_matrix(chain)

    def test_absorption_tail_matches_geometric(self):
        alpha = 0.3
        chain = absorbing_chain(alpha)
        tail = absorption_time_distribution_tail(chain, 10)
        for r in range(11):
            assert tail[r] == pytest.approx((1 - alpha) ** r)

    def test_absorption_tail_zero_when_start_recurrent(self):
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        tail = absorption_time_distribution_tail(chain, 5)
        assert np.all(tail == 0.0)

    def test_hitting_times_two_state(self):
        # 0 -> 1 w.p. p each step: E[hit 1 from 0] = 1/p.
        p = 0.2
        chain = MarkovChain(np.array([[1 - p, p], [0.5, 0.5]]))
        times = expected_hitting_times(chain, target=1)
        assert times[1] == 0.0
        assert times[0] == pytest.approx(1 / p)

    def test_hitting_time_matches_simulation(self, rng):
        matrix = np.array(
            [
                [0.2, 0.5, 0.3],
                [0.4, 0.1, 0.5],
                [0.25, 0.25, 0.5],
            ]
        )
        chain = MarkovChain(matrix)
        times = expected_hitting_times(chain, target=2)
        samples = []
        for _ in range(4000):
            state = 0
            steps = 0
            while state != 2:
                state = rng.choice(chain.n_states, p=chain.matrix[state])
                steps += 1
            samples.append(steps)
        assert np.mean(samples) == pytest.approx(times[0], rel=0.08)

    def test_kac_formula(self):
        """Expected return time equals 1/pi(state)."""
        matrix = np.array(
            [
                [0.1, 0.6, 0.3],
                [0.5, 0.2, 0.3],
                [0.3, 0.3, 0.4],
            ]
        )
        chain = MarkovChain(matrix)
        pi = stationary_distribution(chain)
        for state in range(3):
            assert expected_return_time(chain, state) == pytest.approx(
                1.0 / pi[state], rel=1e-8
            )

    def test_mean_visits(self):
        chain = absorbing_chain(0.5)
        visits = mean_visits_before_absorption(chain)
        assert visits == {0: pytest.approx(2.0)}

    def test_validation(self):
        chain = absorbing_chain()
        with pytest.raises(InvalidParameterError):
            expected_hitting_times(chain, target=5)
        with pytest.raises(InvalidParameterError):
            absorption_time_distribution_tail(chain, -1)
        with pytest.raises(InvalidParameterError):
            expected_absorption_time(chain, start=9)


class TestMultiTargetWorld:
    def test_union_semantics(self):
        world = MultiTargetWorld([(1, 1), (-2, 0)], distance_bound=4)
        assert world.is_target((1, 1))
        assert not world.is_target((0, 0))
        assert world.discovered[(1, 1)]
        assert not world.discovered[(-2, 0)]
        assert not world.all_discovered
        assert world.undiscovered() == [(-2, 0)]

    def test_nearest_target_property(self):
        world = MultiTargetWorld([(3, 3), (1, 0)], distance_bound=4)
        assert world.target == (1, 0)
        world.is_target((1, 0))
        assert world.target == (3, 3)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MultiTargetWorld([], distance_bound=4)
        with pytest.raises(InvalidParameterError):
            MultiTargetWorld([(1, 1), (1, 1)], distance_bound=4)
        with pytest.raises(InvalidParameterError):
            MultiTargetWorld([(9, 9)], distance_bound=4)

    def test_visit_tracking(self):
        world = MultiTargetWorld([(1, 1)], distance_bound=2, track_visits=True)
        world.record_visit((0, 0))
        world.record_visit((5, 5))  # outside window
        assert world.visited_cells == frozenset({(0, 0)})
        assert world.coverage_fraction() == pytest.approx(1 / 25)

    def test_engine_runs_against_multi_world(self):
        from repro.core.algorithm1 import Algorithm1
        from repro.sim.engine import EngineConfig, SearchEngine

        world = MultiTargetWorld([(2, 1), (-3, -3)], distance_bound=6)
        engine = SearchEngine(EngineConfig(move_budget=200_000))
        outcome = engine.run(Algorithm1(6), 4, world, rng=3)
        assert outcome.found
        assert any(world.discovered.values())

    def test_forage_until_all_found(self):
        from repro.core.algorithm1 import Algorithm1

        world = MultiTargetWorld([(2, 1), (-1, 3), (0, -2)], distance_bound=4)
        trips = forage_until_all_found(
            Algorithm1(4), 3, world, 11, move_budget_per_item=300_000
        )
        assert trips is not None
        assert len(trips) <= 3
        assert world.all_discovered


class TestDoublyUniform:
    def test_process_emits_moves_and_returns(self, rng):
        process = DoublyUniformSearch(ell=1).process(rng)
        actions = [next(process) for _ in range(3000)]
        assert any(a.is_move for a in actions)
        assert Action.ORIGIN in actions

    def test_truncated_machine_idles(self, rng):
        process = DoublyUniformSearch(ell=1, max_epoch=1).process(rng)
        actions = [next(process) for _ in range(20_000)]
        assert all(a is Action.NONE for a in actions[-50:])

    def test_sufficient_epoch(self):
        algorithm = DoublyUniformSearch(ell=1)
        assert algorithm.sufficient_epoch(64, 2) == 6  # i0 = 6 dominates
        assert algorithm.sufficient_epoch(4, 1024) == 10  # log2 n dominates

    def test_chi_grows_doubly_logarithmically(self):
        algorithm = DoublyUniformSearch(ell=1)
        small = algorithm.selection_complexity_for(2**6, 4).chi
        large = algorithm.selection_complexity_for(2**12, 4).chi
        assert small < large <= small + 5

    def test_finds_target_without_knowing_d_or_n(self):
        from repro.grid.world import GridWorld
        from repro.sim.engine import EngineConfig, SearchEngine

        engine = SearchEngine(EngineConfig(move_budget=3_000_000))
        world = GridWorld(target=(5, -4), distance_bound=8)
        outcome = engine.run(DoublyUniformSearch(ell=1), 3, world, rng=2)
        assert outcome.found

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DoublyUniformSearch(ell=0)
        with pytest.raises(InvalidParameterError):
            DoublyUniformSearch(ell=1, max_epoch=0)
        with pytest.raises(InvalidParameterError):
            DoublyUniformSearch(ell=1, K=0)
        with pytest.raises(InvalidParameterError):
            DoublyUniformSearch(ell=1).sufficient_epoch(8, 0)
