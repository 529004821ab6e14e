"""Unit tests for repro.core.automaton and repro.core.actions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import ACTION_VECTORS, Action
from repro.core.automaton import Automaton, AutomatonAlgorithm
from repro.errors import InvalidParameterError


def two_state_machine() -> Automaton:
    """origin <-> up with asymmetric probabilities."""
    matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
    return Automaton(matrix, [Action.ORIGIN, Action.UP], start=0, name="toy")


class _FixedUniforms:
    """Stands in for a Generator whose next ``random(n)`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


class TestActions:
    def test_move_actions(self):
        assert Action.UP.is_move
        assert Action.LEFT.is_move
        assert not Action.ORIGIN.is_move
        assert not Action.NONE.is_move

    def test_direction_mapping(self):
        assert Action.UP.direction.vector == (0, 1)
        assert Action.LEFT.direction.vector == (-1, 0)

    def test_non_move_has_no_direction(self):
        with pytest.raises(ValueError):
            _ = Action.NONE.direction

    def test_action_vectors_consistent(self):
        for action in Action:
            if action.is_move:
                assert ACTION_VECTORS[action] == action.direction.vector
            else:
                assert ACTION_VECTORS[action] == (0, 0)


class TestAutomatonValidation:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidParameterError):
            Automaton(np.ones((2, 3)) / 3, [Action.ORIGIN, Action.UP])

    def test_rejects_non_stochastic_rows(self):
        matrix = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(InvalidParameterError):
            Automaton(matrix, [Action.ORIGIN, Action.UP])

    def test_rejects_negative_probability(self):
        matrix = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(InvalidParameterError):
            Automaton(matrix, [Action.ORIGIN, Action.UP])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(InvalidParameterError):
            Automaton(np.eye(2), [Action.ORIGIN])

    def test_rejects_start_not_labeled_origin(self):
        with pytest.raises(InvalidParameterError):
            Automaton(np.eye(2), [Action.UP, Action.ORIGIN], start=0)

    def test_rejects_start_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Automaton(np.eye(2), [Action.ORIGIN, Action.UP], start=5)


class TestAutomatonBehaviour:
    def test_basic_properties(self):
        machine = two_state_machine()
        assert machine.n_states == 2
        assert machine.start == 0
        assert machine.label(1) is Action.UP
        assert machine.min_positive_probability() == 0.25
        assert machine.memory_bits() == 1

    def test_selection_complexity(self):
        sc = two_state_machine().selection_complexity()
        assert sc.bits == 1
        assert sc.ell == 2.0  # min prob 1/4 = 2^-2
        assert sc.chi == 2.0

    def test_matrix_is_copied(self):
        machine = two_state_machine()
        matrix = machine.matrix
        matrix[0, 0] = 99.0
        assert machine.matrix[0, 0] == 0.25

    def test_step_distribution(self, rng):
        machine = two_state_machine()
        successors = [machine.step(rng, 0) for _ in range(20_000)]
        assert np.mean(successors) == pytest.approx(0.75, abs=0.02)

    def test_step_many_matches_step_distribution(self, rng):
        machine = two_state_machine()
        states = np.zeros(20_000, dtype=np.int64)
        successors = machine.step_many(rng, states)
        assert successors.mean() == pytest.approx(0.75, abs=0.02)
        assert set(np.unique(successors)) <= {0, 1}

    def test_successor_table_matches_step_many(self):
        """The threshold-count lookup the colony simulator steps with
        returns exactly the states ``step_many`` draws, including for
        non-dyadic probabilities whose running sums round."""
        thirds = Automaton(
            np.array([[0.0, 1 / 3, 2 / 3], [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]]),
            [Action.ORIGIN, Action.UP, Action.LEFT],
        )
        for machine in (two_state_machine(), thirds):
            thresholds = machine.transition_thresholds()
            table = machine.successor_table()
            assert table.shape == (machine.n_states, thresholds.size + 1)
            for seed in range(3):
                states = np.random.default_rng(100 + seed).integers(
                    0, machine.n_states, size=5000
                )
                u = np.random.default_rng(seed).random(5000)
                expected = machine.step_many(np.random.default_rng(seed), states)
                counts = (u[:, None] > thresholds).sum(axis=1)
                assert np.array_equal(table[states, counts], expected)
            # Uniforms at the thresholds themselves, where ties are decided.
            u = np.append(thresholds, np.nextafter(thresholds, 1.0))
            counts = (u[:, None] > thresholds).sum(axis=1)
            for state in range(machine.n_states):
                states = np.full(u.size, state)
                expected = machine.step_many(_FixedUniforms(u), states)
                assert np.array_equal(table[state, counts], expected)

    def test_walk_length(self, rng):
        machine = two_state_machine()
        path = machine.walk(rng, 17)
        assert path.shape == (17,)
        assert set(np.unique(path)) <= {0, 1}

    def test_move_vectors_and_origin_mask(self):
        machine = two_state_machine()
        vectors = machine.move_vectors()
        assert vectors.tolist() == [[0, 0], [0, 1]]
        assert machine.origin_state_mask().tolist() == [True, False]

    def test_to_markov_chain_round_trip(self):
        machine = two_state_machine()
        chain = machine.to_markov_chain()
        assert chain.n_states == 2
        assert chain.start == 0
        np.testing.assert_allclose(chain.matrix, machine.matrix)
        assert chain.state_names == ["s0:origin", "s1:up"]

    def test_deterministic_machine_min_probability(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        machine = Automaton(matrix, [Action.ORIGIN, Action.UP])
        assert machine.min_positive_probability() == 1.0
        assert machine.selection_complexity().ell == 1.0


class TestAutomatonAlgorithm:
    def test_process_yields_labels(self, rng):
        algorithm = AutomatonAlgorithm(two_state_machine())
        process = algorithm.process(rng)
        actions = [next(process) for _ in range(50)]
        assert set(actions) <= {Action.ORIGIN, Action.UP}

    def test_name_and_accessors(self):
        machine = two_state_machine()
        algorithm = AutomatonAlgorithm(machine)
        assert algorithm.name == "toy"
        assert algorithm.automaton() is machine
        assert algorithm.selection_complexity().chi == 2.0
