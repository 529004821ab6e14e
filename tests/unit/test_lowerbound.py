"""Unit tests for the lower-bound machinery (repro.lowerbound)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import Action
from repro.core.automaton import Automaton
from repro.errors import InvalidParameterError
from repro.lowerbound import colony
from repro.lowerbound.certify import certify
from repro.lowerbound.colony import simulate_colony
from repro.lowerbound.coverage import (
    adversarial_target,
    distance_to_prediction,
    empirical_vs_predicted,
    predicted_coverage_fraction,
    ray_distance,
)
from repro.lowerbound.drift import drift_profile, measure_max_deviation
from repro.lowerbound.theory import (
    chi_margin,
    horizon_moves,
    initial_rounds_r0,
    is_poly_agents,
    speedup_cap_below_threshold,
    tube_width,
)
from repro.markov.classify import classify_states
from repro.markov.random_automata import (
    biased_walk_automaton,
    cycle_automaton,
    random_bounded_automaton,
    uniform_walk_automaton,
)


class TestTheoryQuantities:
    def test_horizon_moves(self):
        assert horizon_moves(16, 1.0) == 16
        assert horizon_moves(16, 0.5) == 64  # D^{1.5}
        assert horizon_moves(100, 0.25) == int(np.ceil(100**1.75))

    def test_horizon_validation(self):
        with pytest.raises(InvalidParameterError):
            horizon_moves(1)
        with pytest.raises(InvalidParameterError):
            horizon_moves(16, 0.0)

    def test_r0_grows_with_states(self):
        small = initial_rounds_r0(0.5, 1, 64)
        large = initial_rounds_r0(0.5, 3, 64)
        assert large > small

    def test_chi_margin_sign(self):
        # threshold at D=256 is 3.
        assert chi_margin(2.0, 256) > 0
        assert chi_margin(4.0, 256) < 0

    def test_tube_width_sublinear_in_d_over_s(self):
        # width * |S| / D -> 0 as D grows (the o(D/|S|) requirement).
        ratios = [tube_width(d, 4) * 4 / d for d in (16, 256, 65536)]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_speedup_cap(self):
        assert speedup_cap_below_threshold(256, 2, 0.25) == 2.0
        assert speedup_cap_below_threshold(256, 10**6, 0.25) == pytest.approx(
            256**0.25
        )

    def test_poly_agents(self):
        assert is_poly_agents(16, 4096)
        assert not is_poly_agents(16, 16**4)


class TestDrift:
    def test_uniform_walk_has_zero_drift(self):
        lines = drift_profile(uniform_walk_automaton())
        assert len(lines) == 1
        assert lines[0].drift == pytest.approx((0.0, 0.0))
        assert lines[0].absorption_probability == 1.0
        assert lines[0].moves_per_round == pytest.approx(1.0)
        assert not lines[0].is_stalling

    def test_biased_walk_drift_matches_quantized_weights(self):
        machine = biased_walk_automaton([2, 0, 1, 1], ell=2)
        (line,) = drift_profile(machine)
        # quantized to (2, 0, 1, 1)/4: drift = (p_right - p_left, p_up - p_down)
        assert line.drift == pytest.approx((0.0, 0.5))
        assert line.speed == pytest.approx(0.5)

    def test_cycle_machine_zero_drift_loop(self):
        pattern = [Action.UP, Action.RIGHT, Action.DOWN, Action.LEFT]
        (line,) = drift_profile(cycle_automaton(pattern))
        assert line.drift == pytest.approx((0.0, 0.0))

    def test_straight_line_machine_unit_drift(self):
        (line,) = drift_profile(cycle_automaton([Action.UP]))
        assert line.drift == pytest.approx((0.0, 1.0))

    def test_measured_deviation_small_for_deterministic_line(self, rng):
        machine = cycle_automaton([Action.UP])
        deviation, line = measure_max_deviation(machine, rounds=500, rng=rng)
        assert line.drift == pytest.approx((0.0, 1.0))
        assert deviation <= 2.0  # burn-in offset only

    def test_measured_deviation_diffusive_for_uniform_walk(self, rng):
        machine = uniform_walk_automaton()
        rounds = 3600
        deviation, _ = measure_max_deviation(machine, rounds=rounds, rng=rng)
        # Diffusive: deviation ~ sqrt(rounds) << rounds.
        assert deviation < rounds / 8
        assert deviation > 0

    def test_deviation_rejects_bad_rounds(self, rng):
        with pytest.raises(InvalidParameterError):
            measure_max_deviation(uniform_walk_automaton(), rounds=0, rng=rng)


class TestRayDistance:
    def test_point_on_ray(self):
        assert ray_distance((3, 3), (1.0, 1.0)) == pytest.approx(0.0)

    def test_point_behind_ray_uses_origin(self):
        assert ray_distance((-3, 0), (1.0, 0.0)) == pytest.approx(3.0)

    def test_perpendicular_offset(self):
        assert ray_distance((5, 1), (1.0, 0.0)) == pytest.approx(1.0)

    def test_zero_direction_degenerates_to_norm(self):
        assert ray_distance((3, 4), (0.0, 0.0)) == pytest.approx(5.0)

    def test_distance_to_prediction_min_over_lines(self):
        machine = biased_walk_automaton([4, 0, 0, 0], ell=2)  # drifts up
        lines = drift_profile(machine)
        on_line = distance_to_prediction((0, 10), lines)
        off_line = distance_to_prediction((10, 0), lines)
        assert on_line == pytest.approx(0.0)
        assert off_line > 5


class TestCoverage:
    def test_predicted_fraction_decays_with_distance(self):
        machine = uniform_walk_automaton()
        fractions = [predicted_coverage_fraction(machine, d) for d in (64, 256, 1024)]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_adversarial_target_avoids_drift_line(self):
        machine = biased_walk_automaton([4, 0, 0, 0], ell=2)  # drifts straight up
        target = adversarial_target(machine, 64)
        lines = drift_profile(machine)
        assert distance_to_prediction(target, lines) > 32

    def test_adversarial_target_within_bound(self):
        machine = uniform_walk_automaton()
        target = adversarial_target(machine, 32)
        assert max(abs(target[0]), abs(target[1])) <= 32

    def test_empirical_vs_predicted_shapes(self, rng):
        machine = uniform_walk_automaton()
        result = simulate_colony(machine, 4, 500, rng, window_radius=16)
        empirical, predicted = empirical_vs_predicted(result.visited, machine, 16)
        assert 0.0 < empirical < 1.0
        assert 0.0 < predicted <= 1.0

    def test_empirical_vs_predicted_validates_shape(self):
        machine = uniform_walk_automaton()
        with pytest.raises(InvalidParameterError):
            empirical_vs_predicted(np.zeros((3, 3), dtype=bool), machine, 16)


class TestColonySimulation:
    def test_coverage_counts_origin(self, rng):
        machine = uniform_walk_automaton()
        result = simulate_colony(machine, 2, 10, rng, window_radius=8)
        assert result.visited[8, 8]  # origin cell
        assert result.visited_count() >= 1

    def test_straight_line_colony_visits_column(self, rng):
        machine = cycle_automaton([Action.UP])
        result = simulate_colony(machine, 1, 8, rng, window_radius=8)
        column = result.visited[8, :]  # x = 0 column
        assert column.sum() >= 8

    def test_target_found_with_move_count(self, rng):
        machine = cycle_automaton([Action.UP])
        result = simulate_colony(
            machine, 3, 20, rng, window_radius=16, target=(0, 5)
        )
        assert result.found
        assert result.m_moves == 5
        assert result.m_steps is not None

    def test_target_missed(self, rng):
        machine = cycle_automaton([Action.UP])
        result = simulate_colony(
            machine, 2, 50, rng, window_radius=16, target=(3, 3)
        )
        assert not result.found
        assert result.m_moves is None

    def test_validation(self, rng):
        machine = uniform_walk_automaton()
        with pytest.raises(InvalidParameterError):
            simulate_colony(machine, 0, 5, rng, window_radius=4)
        with pytest.raises(InvalidParameterError):
            simulate_colony(machine, 1, 0, rng, window_radius=4)
        with pytest.raises(InvalidParameterError):
            simulate_colony(machine, 1, 5, rng, window_radius=0)


def _legacy_simulate_colony(automaton, n_agents, rounds, rng, *, window_radius,
                            target=None):
    """The round-by-round colony loop the blocked simulator replaced,
    kept as its bit-identity reference; every agent steps with
    ``Automaton.step``, one uniform each, in agent order."""
    side = 2 * window_radius + 1
    visited = np.zeros((side, side), dtype=bool)
    visited[window_radius, window_radius] = True

    states = np.full(n_agents, automaton.start, dtype=np.int64)
    positions = np.zeros((n_agents, 2), dtype=np.int64)
    moves = np.zeros(n_agents, dtype=np.int64)
    move_vectors = automaton.move_vectors()
    origin_mask_by_state = automaton.origin_state_mask()

    target_array = None if target is None else np.asarray(target, dtype=np.int64)
    best_moves = best_steps = finder = None
    found_mask = np.zeros(n_agents, dtype=bool)

    for round_index in range(1, rounds + 1):
        states = np.array(
            [automaton.step(rng, int(state)) for state in states], dtype=np.int64
        )
        displacements = move_vectors[states]
        positions += displacements
        teleported = origin_mask_by_state[states]
        if np.any(teleported):
            positions[teleported] = 0
        is_move = (displacements[:, 0] != 0) | (displacements[:, 1] != 0)
        moves += is_move

        in_window = (np.abs(positions) <= window_radius).all(axis=1)
        if np.any(in_window):
            xs = positions[in_window, 0] + window_radius
            ys = positions[in_window, 1] + window_radius
            visited[xs, ys] = True

        if target_array is not None:
            hits = (
                is_move
                & ~found_mask
                & (positions[:, 0] == target_array[0])
                & (positions[:, 1] == target_array[1])
            )
            if np.any(hits):
                hit_ids = np.flatnonzero(hits)
                found_mask[hit_ids] = True
                candidate = int(moves[hit_ids].min())
                if best_moves is None or candidate < best_moves:
                    best_moves = candidate
                    finder = int(hit_ids[np.argmin(moves[hit_ids])])
                if best_steps is None:
                    best_steps = round_index

    return visited, best_moves, best_steps, finder


def _teleporting_automaton():
    """Steps up, down or right, idles, or returns to ORIGIN (one step in
    eight), independently of its state."""
    row = [0.125, 0.25, 0.25, 0.125, 0.25]
    labels = [Action.ORIGIN, Action.UP, Action.RIGHT, Action.NONE, Action.DOWN]
    return Automaton(np.array([row] * 5), labels, name="teleporting")


def test_block_draw_equals_round_by_round_draws():
    """The NumPy stream equality the blocked colony relies on: one
    ``random((b, n))`` call gives the values, and leaves the generator
    state, of ``b`` calls of ``random(n)``."""
    for seed in range(20):
        for count in (1, 2, 7, 19):
            block_rng = np.random.default_rng(seed)
            round_rng = np.random.default_rng(seed)
            # An odd count first leaves half a 64-bit word buffered.
            block_rng.integers(0, 2, size=3)
            round_rng.integers(0, 2, size=3)
            assert np.array_equal(
                block_rng.random((5, count)),
                np.stack([round_rng.random(count) for _ in range(5)]),
            )
            assert block_rng.bit_generator.state == round_rng.bit_generator.state


def test_blocked_chain_matches_stepping_round_by_round():
    """The chain both simulators run on: every agent's state and
    position after every round, across block boundaries, equal one
    ``Automaton.step`` per agent per round, and so does the generator
    state afterwards.  The random machines' successors depend on their
    state, so a state that failed to carry over a boundary shows."""
    for n_agents in (1, 3):
        rounds = colony._BLOCK_VALUES // n_agents + 5
        for seed in range(2):
            machine = random_bounded_automaton(
                np.random.default_rng(seed), bits=3, ell=2
            )
            chain_rng = np.random.default_rng(seed)
            step_rng = np.random.default_rng(seed)
            starts = np.arange(n_agents) % machine.n_states
            blocks = list(colony._blocked_chain(machine, starts, rounds, chain_rng))
            _, *parts = zip(*blocks)
            states, xs, ys = map(np.concatenate, parts)

            current = [int(start) for start in starts]
            position = np.zeros((n_agents, 2), dtype=np.int64)
            vectors = machine.move_vectors()
            for round_index in range(rounds):
                current = [machine.step(step_rng, state) for state in current]
                position += vectors[current]
                position[machine.origin_state_mask()[current]] = 0
                assert states[round_index].tolist() == current
                assert xs[round_index].tolist() == position[:, 0].tolist()
                assert ys[round_index].tolist() == position[:, 1].tolist()
            assert chain_rng.bit_generator.state == step_rng.bit_generator.state


class TestColonyLegacyTwin:
    """The blocked colony is bit-identical to the round-by-round loop:
    same coverage, first find and finder, and the same generator state
    afterwards (E10 draws its uniform target from it)."""

    def _assert_twin(self, automaton, n_agents, rounds, seed, radius, target):
        legacy_rng = np.random.default_rng(seed)
        blocked_rng = np.random.default_rng(seed)
        visited, m_moves, m_steps, finder = _legacy_simulate_colony(
            automaton, n_agents, rounds, legacy_rng,
            window_radius=radius, target=target,
        )
        result = simulate_colony(
            automaton, n_agents, rounds, blocked_rng,
            window_radius=radius, target=target,
        )
        assert np.array_equal(result.visited, visited)
        assert (result.m_moves, result.m_steps, result.finder) == (
            m_moves, m_steps, finder
        )
        assert result.found == (m_moves is not None)
        assert blocked_rng.bit_generator.state == legacy_rng.bit_generator.state
        return result

    def test_teleports_and_ragged_last_block(self):
        machine = _teleporting_automaton()
        n_agents = 200
        block = colony._BLOCK_VALUES // n_agents
        for seed in range(3):
            self._assert_twin(
                machine, n_agents, 2 * block + 37, seed, 6, target=(2, 3)
            )

    def test_random_machines_with_idle_states(self):
        for seed in range(6):
            machine = random_bounded_automaton(
                np.random.default_rng(seed), bits=3, ell=2
            )
            self._assert_twin(machine, 40, 300, seed, 5, target=(1, -1))

    def test_equal_moves_tie_break(self):
        # Ten agents on a tiny grid with idle and teleport states: many
        # finds share a move count across and within rounds.
        machine = _teleporting_automaton()
        finders = set()
        for seed in range(8):
            result = self._assert_twin(machine, 10, 60, seed, 4, target=(1, 1))
            finders.add(result.finder)
        assert len(finders) > 1

    def test_origin_target_needs_a_move(self):
        # Idling or teleporting at the origin is not a find.
        machine = _teleporting_automaton()
        for seed in range(3):
            result = self._assert_twin(machine, 6, 80, seed, 4, target=(0, 0))
            assert result.found and result.m_moves >= 2

    def test_hit_in_first_round(self):
        result = self._assert_twin(
            cycle_automaton([Action.UP]), 5, 9, 0, 4, target=(0, 1)
        )
        assert (result.m_moves, result.m_steps, result.finder) == (1, 1, 0)

    def test_agents_above_block_cap(self):
        machine = _teleporting_automaton()
        n_agents = colony._BLOCK_VALUES + 1
        self._assert_twin(machine, n_agents, 3, 5, 3, target=(0, 2))

    def test_single_agent_across_blocks(self):
        # One agent takes the recurrence on Python ints.
        rounds = colony._BLOCK_VALUES + 37
        self._assert_twin(_teleporting_automaton(), 1, rounds, 2, 6, (2, 3))

    def test_without_target(self):
        result = self._assert_twin(
            uniform_walk_automaton(), 6, 500, 11, 10, target=None
        )
        assert not result.found and result.finder is None


def _legacy_measure_max_deviation(automaton, rounds, rng, *, burn_in=None):
    """The per-round ``measure_max_deviation`` the blocked chain
    replaced, kept verbatim as its bit-identity reference."""
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    chain = automaton.to_markov_chain()
    classification = classify_states(chain)
    if burn_in is None:
        burn_in = 4 * automaton.n_states * automaton.n_states

    state = automaton.start
    for _ in range(burn_in):
        state = automaton.step(rng, state)

    target_class = classification.class_of(state)
    if target_class is None:
        # Extremely unlikely after the burn-in; step until absorbed.
        while target_class is None:
            state = automaton.step(rng, state)
            target_class = classification.class_of(state)

    lines = drift_profile(automaton)
    line = next(l for l in lines if l.states == target_class)

    position = np.zeros(2)
    drift = np.asarray(line.drift)
    vectors = automaton.move_vectors()
    labels = automaton.labels
    max_deviation = 0.0
    reference_round = 0
    for round_index in range(1, rounds + 1):
        state = automaton.step(rng, state)
        if labels[state] is Action.ORIGIN:
            position[:] = 0.0
            reference_round = round_index
        else:
            position += vectors[state]
        expected = (round_index - reference_round) * drift
        deviation = float(np.abs(position - expected).max())
        if deviation > max_deviation:
            max_deviation = deviation
    return max_deviation, line


def _fork_automaton():
    """A transient ORIGIN start that lingers (one step in two) and then
    settles for good on an up-line or a right-line."""
    matrix = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return Automaton(matrix, [Action.ORIGIN, Action.UP, Action.RIGHT])


class TestDriftLegacyTwin:
    """E11's blocked one-agent chain is bit-identical to the per-round
    loop: the same deviation, the same drift line and the same
    generator state afterwards."""

    def _assert_twin(self, automaton, rounds, seed, burn_in=None):
        legacy_rng = np.random.default_rng(seed)
        blocked_rng = np.random.default_rng(seed)
        expected = _legacy_measure_max_deviation(
            automaton, rounds, legacy_rng, burn_in=burn_in
        )
        result = measure_max_deviation(
            automaton, rounds, blocked_rng, burn_in=burn_in
        )
        assert result == expected
        assert blocked_rng.bit_generator.state == legacy_rng.bit_generator.state
        return result

    def test_origin_returns_reset_the_line(self):
        for seed in range(4):
            deviation, line = self._assert_twin(
                _teleporting_automaton(), 3000, seed
            )
            assert line.has_origin_state and deviation > 0

    def test_horizon_longer_than_one_block(self):
        # The state, the position and the latest ORIGIN return all
        # carry across the block boundary.
        rounds = colony._BLOCK_VALUES + 1234
        for seed in range(3):
            self._assert_twin(_teleporting_automaton(), rounds, seed)
            machine = random_bounded_automaton(
                np.random.default_rng(seed), bits=3, ell=2
            )
            self._assert_twin(machine, rounds, seed)

    def test_step_until_absorbed(self):
        # burn_in=0 leaves the agent on its transient start state, so
        # it steps one round at a time until a class absorbs it.
        drifts = set()
        for seed in range(8):
            _, line = self._assert_twin(_fork_automaton(), 500, seed, burn_in=0)
            drifts.add(line.drift)
        assert drifts == {(0.0, 1.0), (1.0, 0.0)}

    def test_e11_specimens(self):
        from repro.experiments.e11_drift import specimens

        for seed, (_, machine) in enumerate(specimens()):
            self._assert_twin(machine, 2000, seed)


class TestCertificate:
    def test_certificate_fields(self, rng):
        machine = random_bounded_automaton(rng, bits=2, ell=1)
        certificate = certify(machine, 64, 8)
        assert certificate.distance == 64
        assert certificate.threshold == pytest.approx(np.log2(np.log2(64)))
        assert certificate.horizon == horizon_moves(64)
        assert len(certificate.drift_lines) >= 1
        assert 0.0 < certificate.predicted_coverage <= 1.0
        assert certificate.speedup_cap <= 8

    def test_summary_renders(self, rng):
        machine = uniform_walk_automaton()
        certificate = certify(machine, 64, 4)
        text = "\n".join(certificate.summary_lines())
        assert "chi" in text and "drift" in text

    def test_below_threshold_flag(self):
        # A 2-state, ell=1 machine has chi = 1 < log log 64 = 2.585.
        import numpy as np
        from repro.core.automaton import Automaton

        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        machine = Automaton(matrix, [Action.ORIGIN, Action.UP])
        certificate = certify(machine, 64, 4)
        assert certificate.below_threshold

    def test_validation(self):
        machine = uniform_walk_automaton()
        with pytest.raises(InvalidParameterError):
            certify(machine, 2, 4)
        with pytest.raises(InvalidParameterError):
            certify(machine, 64, 0)
