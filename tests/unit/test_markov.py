"""Unit tests for the Markov-chain substrate (repro.markov)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, InvalidParameterError
from repro.markov.chain import MarkovChain
from repro.markov.classify import (
    absorbing_probability_classes,
    classify_states,
    reachable_from,
    strongly_connected_components,
)
from repro.markov.coupling import (
    doeblin_epsilon,
    mixing_block_length,
    rosenthal_envelope,
    steps_for_tv_target,
)
from repro.markov.periodicity import class_period, cyclic_classes, is_aperiodic
from repro.markov.stationary import (
    cesaro_distribution,
    power_iteration_distribution,
    stationary_distribution,
    total_variation,
)


def two_state_chain(p: float = 0.3, q: float = 0.4) -> MarkovChain:
    """Ergodic two-state chain with stationary (q, p)/(p+q)."""
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


def absorbing_chain() -> MarkovChain:
    """State 0 transient, states 1 and 2 each absorbing."""
    matrix = np.array(
        [
            [0.2, 0.5, 0.3],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return MarkovChain(matrix)


def periodic_chain(t: int = 3) -> MarkovChain:
    """A deterministic t-cycle."""
    matrix = np.zeros((t, t))
    for i in range(t):
        matrix[i, (i + 1) % t] = 1.0
    return MarkovChain(matrix)


class TestMarkovChainBasics:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            MarkovChain(np.array([[1.0]]), start=3)
        with pytest.raises(InvalidParameterError):
            MarkovChain(np.ones((2, 3)))
        with pytest.raises(InvalidParameterError):
            MarkovChain(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_basic_accessors(self):
        chain = two_state_chain()
        assert chain.n_states == 2
        assert chain.probability(0, 1) == pytest.approx(0.3)
        assert chain.successors(0).tolist() == [0, 1]
        assert chain.min_positive_probability() == pytest.approx(0.3)

    def test_power_and_distribution(self):
        chain = two_state_chain()
        p2 = chain.power(2)
        np.testing.assert_allclose(p2, chain.matrix @ chain.matrix)
        dist = chain.distribution_after(2)
        np.testing.assert_allclose(dist, p2[0])

    def test_distribution_after_custom_initial(self):
        chain = two_state_chain()
        initial = np.array([0.5, 0.5])
        dist = chain.distribution_after(1, initial)
        np.testing.assert_allclose(dist, initial @ chain.matrix)

    def test_distribution_rejects_bad_initial(self):
        chain = two_state_chain()
        with pytest.raises(InvalidParameterError):
            chain.distribution_after(1, np.array([0.9, 0.2]))

    def test_sampling_matches_matrix(self, rng):
        chain = two_state_chain(0.25, 0.75)
        successors = rng.choice(chain.n_states, size=20_000, p=chain.matrix[0])
        assert np.mean(successors) == pytest.approx(0.25, abs=0.02)

    def test_restricted_to_closed_subset(self):
        chain = absorbing_chain()
        sub = chain.restricted_to([1])
        assert sub.n_states == 1

    def test_restricted_to_open_subset_rejected(self):
        chain = absorbing_chain()
        with pytest.raises(InvalidParameterError):
            chain.restricted_to([0, 1])


class TestClassification:
    def test_scc_on_dag(self):
        adjacency = np.array(
            [
                [False, True, False],
                [False, False, True],
                [False, False, False],
            ]
        )
        components = strongly_connected_components(adjacency)
        assert sorted(map(tuple, components)) == [(0,), (1,), (2,)]

    def test_scc_cycle(self):
        adjacency = np.array(
            [
                [False, True, False],
                [False, False, True],
                [True, False, False],
            ]
        )
        components = strongly_connected_components(adjacency)
        assert components == [[0, 1, 2]]

    def test_scc_reverse_topological_order(self):
        # 0 -> 1 -> 2; Tarjan emits sinks first.
        adjacency = np.array(
            [
                [False, True, False],
                [False, False, True],
                [False, False, False],
            ]
        )
        components = strongly_connected_components(adjacency)
        assert components[0] == [2]
        assert components[-1] == [0]

    def test_classify_absorbing(self):
        classification = classify_states(absorbing_chain())
        assert classification.transient_states == frozenset({0})
        assert set(classification.recurrent_classes) == {
            frozenset({1}),
            frozenset({2}),
        }
        assert classification.n_recurrent_classes == 2
        assert classification.is_recurrent(1)
        assert not classification.is_recurrent(0)
        assert classification.class_of(2) == frozenset({2})

    def test_classify_irreducible(self):
        classification = classify_states(two_state_chain())
        assert classification.transient_states == frozenset()
        assert classification.recurrent_classes == (frozenset({0, 1}),)

    def test_reachability(self):
        chain = absorbing_chain()
        assert reachable_from(chain, 0) == frozenset({0, 1, 2})
        assert reachable_from(chain, 1) == frozenset({1})

    def test_absorption_probabilities(self):
        chain = absorbing_chain()
        absorption = absorbing_probability_classes(chain)
        # From 0: each visit leaves with 0.5 to {1} vs 0.3 to {2};
        # conditioned on leaving, 5/8 and 3/8.
        assert absorption[frozenset({1})] == pytest.approx(5 / 8)
        assert absorption[frozenset({2})] == pytest.approx(3 / 8)

    def test_absorption_probabilities_no_transients(self):
        chain = two_state_chain()
        absorption = absorbing_probability_classes(chain)
        assert absorption[frozenset({0, 1})] == 1.0


class TestPeriodicity:
    def test_cycle_period(self):
        chain = periodic_chain(4)
        assert class_period(chain, [0, 1, 2, 3]) == 4
        assert not is_aperiodic(chain, [0, 1, 2, 3])

    def test_aperiodic_chain(self):
        chain = two_state_chain()
        assert class_period(chain, [0, 1]) == 1
        assert is_aperiodic(chain, [0, 1])

    def test_cyclic_classes_partition_and_advance(self):
        chain = periodic_chain(3)
        classes = cyclic_classes(chain, [0, 1, 2])
        assert sorted(sum(classes, [])) == [0, 1, 2]
        # One-step transitions advance class index by one (Theorem A.1).
        adjacency = chain.adjacency()
        index_of = {}
        for tau, group in enumerate(classes):
            for state in group:
                index_of[state] = tau
        for u in range(3):
            for v in np.flatnonzero(adjacency[u]):
                assert index_of[int(v)] == (index_of[u] + 1) % len(classes)

    def test_period_two_bipartite(self):
        matrix = np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.5, 0.0, 0.0, 0.5],
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.5, 0.5, 0.0],
            ]
        )
        chain = MarkovChain(matrix)
        assert class_period(chain, range(4)) == 2

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidParameterError):
            class_period(two_state_chain(), [])


class TestStationary:
    def test_two_state_closed_form(self):
        p, q = 0.3, 0.4
        pi = stationary_distribution(two_state_chain(p, q))
        np.testing.assert_allclose(pi, [q / (p + q), p / (p + q)], atol=1e-10)

    def test_fixed_point_property(self):
        chain = two_state_chain(0.2, 0.7)
        pi = stationary_distribution(chain)
        np.testing.assert_allclose(pi @ chain.matrix, pi, atol=1e-10)

    def test_periodic_class_occupation_uniform(self):
        chain = periodic_chain(5)
        pi = stationary_distribution(chain)
        np.testing.assert_allclose(pi, np.full(5, 0.2), atol=1e-10)

    def test_restricted_to_class(self):
        chain = absorbing_chain()
        pi = stationary_distribution(chain, members=[1])
        np.testing.assert_allclose(pi, [0.0, 1.0, 0.0], atol=1e-12)

    def test_cesaro_agrees_with_solve(self):
        chain = periodic_chain(3)
        cesaro = cesaro_distribution(chain, steps=3000)
        pi = stationary_distribution(chain)
        assert total_variation(cesaro, pi) < 1e-3

    def test_power_iteration_agrees_with_solve(self):
        chain = two_state_chain(0.15, 0.55)
        via_power = power_iteration_distribution(chain)
        via_solve = stationary_distribution(chain)
        assert total_variation(via_power, via_solve) < 1e-6

    def test_total_variation_properties(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == pytest.approx(0.5)
        with pytest.raises(InvalidParameterError):
            total_variation(p, np.array([1.0, 0.0, 0.0]))


class TestCoupling:
    def test_doeblin_epsilon(self):
        chain = two_state_chain(0.25, 0.25)
        assert doeblin_epsilon(chain) == pytest.approx(0.25**2)

    def test_rosenthal_envelope_decreases(self):
        values = [rosenthal_envelope(k, 2, 0.3) for k in (0, 2, 4, 8)]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_envelope_dominates_measured_tv(self):
        """The Lemma A.2 bound must hold for an actual chain."""
        chain = two_state_chain(0.3, 0.45)
        pi = stationary_distribution(chain)
        epsilon = doeblin_epsilon(chain)
        k0 = chain.n_states
        for k in (2, 4, 8, 16):
            measured = total_variation(chain.distribution_after(k), pi)
            assert measured <= rosenthal_envelope(k, k0, epsilon) + 1e-12

    def test_mixing_block_length_positive_and_monotone(self):
        chain = two_state_chain()
        beta_small = mixing_block_length(chain, 16)
        beta_large = mixing_block_length(chain, 4096)
        assert 0 < beta_small < beta_large

    def test_steps_for_tv_target(self):
        chain = two_state_chain(0.5, 0.5)
        steps = steps_for_tv_target(chain, 1e-3)
        pi = stationary_distribution(chain)
        measured = total_variation(chain.distribution_after(steps), pi)
        assert measured <= 1e-3

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            rosenthal_envelope(-1, 1, 0.5)
        with pytest.raises(InvalidParameterError):
            rosenthal_envelope(1, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            rosenthal_envelope(1, 1, 0.0)
