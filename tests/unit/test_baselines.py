"""Unit tests for the baseline algorithms (repro.baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.feinerman import FeinermanSearch, stage_quota, stage_radius
from repro.baselines.levy import LevyWalk, sample_flight_length
from repro.baselines.random_walk import RandomWalkSearch
from repro.baselines.spiral import (
    SpiralSearch,
    spiral_index,
    spiral_moves,
    spiral_point,
    spiral_points,
)
from repro.core.actions import Action
from repro.errors import InvalidParameterError
from repro.grid.geometry import chebyshev_norm


class TestSpiralIndexing:
    def test_origin(self):
        assert spiral_index((0, 0)) == 0
        assert spiral_point(0) == (0, 0)

    def test_first_ring_sequence(self):
        expected = [
            (0, 0), (1, 0), (1, 1), (0, 1), (-1, 1),
            (-1, 0), (-1, -1), (0, -1), (1, -1), (2, -1),
        ]
        for index, point in enumerate(expected):
            assert spiral_point(index) == point
            assert spiral_index(point) == index

    def test_bijection_on_prefix(self):
        for index in range(3000):
            assert spiral_index(spiral_point(index)) == index

    def test_ring_boundaries(self):
        # Ring r spans indices (2r-1)^2 .. (2r+1)^2 - 1.
        for r in (1, 2, 5, 9):
            first = spiral_point((2 * r - 1) ** 2)
            last = spiral_point((2 * r + 1) ** 2 - 1)
            assert chebyshev_norm(first) == r
            assert chebyshev_norm(last) == r

    def test_path_is_connected(self):
        previous = spiral_point(0)
        for index in range(1, 500):
            current = spiral_point(index)
            step = abs(current[0] - previous[0]) + abs(current[1] - previous[1])
            assert step == 1
            previous = current

    def test_moves_follow_points(self):
        moves = spiral_moves()
        position = (0, 0)
        for index in range(1, 200):
            action = next(moves)
            dx, dy = action.direction.vector
            position = (position[0] + dx, position[1] + dy)
            assert position == spiral_point(index)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            spiral_point(-1)

    def test_spiral_points_iterator(self):
        iterator = spiral_points(start=5)
        assert next(iterator) == spiral_point(5)
        assert next(iterator) == spiral_point(6)


class TestSpiralSearch:
    def test_moves_to_find_is_spiral_index(self):
        assert SpiralSearch.moves_to_find((2, -1)) == spiral_index((2, -1))

    def test_engine_run_matches_closed_form(self):
        from repro.grid.world import GridWorld
        from repro.sim.engine import EngineConfig, SearchEngine

        target = (-2, 1)
        engine = SearchEngine(EngineConfig(move_budget=200))
        world = GridWorld(target=target, distance_bound=4)
        outcome = engine.run(SpiralSearch(), 1, world, rng=1)
        assert outcome.found
        assert outcome.m_moves == spiral_index(target)

    def test_no_selection_complexity(self):
        assert SpiralSearch().selection_complexity() is None


class TestRandomWalkBaseline:
    def test_process_only_moves(self, rng):
        process = RandomWalkSearch().process(rng)
        actions = [next(process) for _ in range(200)]
        assert all(action.is_move for action in actions)

    def test_all_directions_used(self, rng):
        process = RandomWalkSearch().process(rng)
        actions = {next(process) for _ in range(500)}
        assert actions == {Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT}

    def test_chi_is_four(self):
        assert RandomWalkSearch().selection_complexity().chi == pytest.approx(4.0)


class TestFeinerman:
    def test_stage_parameters(self):
        assert stage_radius(3) == 8
        assert stage_quota(3, n_agents=1, c=1.0) == 64 + 8
        assert stage_quota(3, n_agents=64, c=1.0) == 9  # ceil(1 + 8)

    def test_stage_validation(self):
        with pytest.raises(InvalidParameterError):
            stage_radius(0)
        with pytest.raises(InvalidParameterError):
            stage_quota(1, 0)

    def test_process_returns_to_origin_each_stage(self, rng):
        process = FeinermanSearch(n_agents=2).process(rng)
        actions = [next(process) for _ in range(3000)]
        assert Action.ORIGIN in actions

    def test_engine_finds_near_target(self, rng):
        from repro.grid.world import GridWorld
        from repro.sim.engine import EngineConfig, SearchEngine

        engine = SearchEngine(EngineConfig(move_budget=200_000))
        world = GridWorld(target=(3, 2), distance_bound=8)
        outcome = engine.run(FeinermanSearch(n_agents=2), 2, world, rng=5)
        assert outcome.found

    def test_chi_accounting_is_theta_log_d(self):
        algorithm = FeinermanSearch(n_agents=4)
        chi_small = algorithm.selection_complexity_for_distance(2**6).chi
        chi_large = algorithm.selection_complexity_for_distance(2**12).chi
        # chi roughly proportional to log D: doubling log D roughly
        # doubles chi (coordinates dominate).
        assert chi_large > 1.5 * chi_small
        assert chi_small > 10  # far above log log D ~ 2.6


class TestLevy:
    def test_flight_length_range(self, rng):
        for _ in range(200):
            length = sample_flight_length(rng, alpha=2.0, max_length=50)
            assert 1 <= length <= 50

    def test_flight_length_heavy_tail(self, rng):
        lengths = [
            sample_flight_length(rng, alpha=2.0, max_length=10**6)
            for _ in range(20_000
            )
        ]
        # P[L >= 10] = 1/10 for alpha = 2.
        tail = np.mean([l >= 10 for l in lengths])
        assert tail == pytest.approx(0.1, abs=0.02)

    def test_process_yields_straight_flights(self, rng):
        process = LevyWalk(alpha=2.0).process(rng)
        actions = [next(process) for _ in range(500)]
        assert all(action.is_move for action in actions)

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            LevyWalk(alpha=1.0)
        with pytest.raises(InvalidParameterError):
            sample_flight_length(rng, alpha=0.5, max_length=10)
        with pytest.raises(InvalidParameterError):
            sample_flight_length(rng, alpha=2.0, max_length=0)
