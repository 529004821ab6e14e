"""Unit tests for repro.core.automaton and repro.core.actions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.actions import ACTION_VECTORS, Action
from repro.core.automaton import Automaton, AutomatonAlgorithm
from repro.errors import InvalidParameterError
from repro.lowerbound.colony import simulate_colony


def two_state_machine() -> Automaton:
    """origin <-> up with asymmetric probabilities."""
    matrix = np.array([[0.25, 0.75], [0.5, 0.5]])
    return Automaton(matrix, [Action.ORIGIN, Action.UP], start=0, name="toy")


def thirds_machine(start: int = 0) -> Automaton:
    """Three states with non-dyadic probabilities, whose running sums
    round, and a zero-probability transition out of state 0.  ``start``
    picks the ORIGIN-labeled start state; the other two states step up
    and right."""
    matrix = np.array(
        [[0.0, 1 / 3, 2 / 3], [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]]
    )
    labels = [Action.UP, Action.RIGHT]
    labels.insert(start, Action.ORIGIN)
    return Automaton(matrix, labels, start=start, name="thirds")


class _FixedUniforms:
    """Stands in for a Generator that hands out ``values`` in order."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        count = int(np.prod(size))
        drawn, self._values = self._values[:count], self._values[count:]
        return np.array(drawn).reshape(size)


def _colony_successor(machine: Automaton, u: float) -> int:
    """The state one agent of ``simulate_colony`` steps to from the
    start state for the uniform ``u``, read off the cell it visits."""
    visited = simulate_colony(
        machine, 1, 1, _FixedUniforms([u]), window_radius=1
    ).visited
    visited[1, 1] = False
    cells = [(x - 1, y - 1) for x, y in np.argwhere(visited)]
    if not cells:
        return machine.start  # the only ORIGIN state: back at the origin
    (cell,) = cells
    (state,) = [
        s for s in range(machine.n_states)
        if ACTION_VECTORS[machine.label(s)] == cell
    ]
    return state


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

    def test_successor_lookup_step_and_colony_agree_on_ties(self, rng):
        """One sampling rule: the threshold-count lookup the blocked
        chain steps with, ``step`` and ``simulate_colony`` return the
        same successor for every uniform, including ``u = 0.0`` and the
        thresholds themselves, where ties are decided, and none of them
        takes a transition of probability zero (the ``thirds`` row 0
        has one, to itself)."""
        for machine in [two_state_machine()] + [thirds_machine(s) for s in range(3)]:
            thresholds = machine.transition_thresholds()
            table = machine.successor_table()
            assert table.shape == (machine.n_states, thresholds.size + 1)
            ties = np.concatenate(
                ([0.0], thresholds, np.nextafter(thresholds, 1.0))
            )
            for u in np.concatenate((ties, rng.random(200))):
                start = machine.start
                lookup = table[start, np.count_nonzero(thresholds <= u)]
                stepped = machine.step(_FixedUniforms([u]), start)
                assert lookup == stepped == _colony_successor(machine, u)
                assert machine.matrix[start, stepped] > 0.0

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
