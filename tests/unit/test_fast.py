"""Unit tests for the per-colony L-sortie simulator (repro.sim.fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import theory
from repro.errors import InvalidParameterError
from repro.sim.fast import _sample_sorties, _sortie_hits, lshape_first_find
from repro.sim.metrics import FastRunStats
from test_kernels import _legacy_sortie_hits


def _legacy_lshape_first_find(stop_probability, n_agents, target, rng, move_budget):
    """The four-call sortie loop the fused sampler replaced, kept
    verbatim as its bit-identity reference: returns
    ``(m_moves, finder, stats)``."""
    if target == (0, 0):
        return 0, 0, FastRunStats(0, 0)
    cumulative = np.zeros(n_agents, dtype=np.int64)
    agent_ids = np.arange(n_agents)
    best = best_finder = None
    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    max_rounds = int(200 * (move_budget / expected_len + 1)) + 10_000
    rounds_executed = iterations_executed = 0
    for _ in range(max_rounds):
        if agent_ids.size == 0:
            break
        count = agent_ids.size
        rounds_executed += 1
        iterations_executed += count
        sv = rng.integers(0, 2, size=count) * 2 - 1
        sh = rng.integers(0, 2, size=count) * 2 - 1
        lv = rng.geometric(stop_probability, size=count) - 1
        lh = rng.geometric(stop_probability, size=count) - 1
        hit, moves_at_hit = _legacy_sortie_hits(target, sv, lv, sh, lh)
        totals = cumulative + moves_at_hit
        eligible = hit & (totals <= move_budget)
        if np.any(eligible):
            candidate_index = int(
                np.argmin(np.where(eligible, totals, np.iinfo(np.int64).max))
            )
            candidate_total = int(totals[candidate_index])
            if best is None or candidate_total < best:
                best = candidate_total
                best_finder = int(agent_ids[candidate_index])
        survivors = ~hit
        cumulative = cumulative[survivors] + (lv + lh)[survivors]
        agent_ids = agent_ids[survivors]
        limit = move_budget if best is None else min(move_budget, best)
        keep = cumulative < limit
        cumulative = cumulative[keep]
        agent_ids = agent_ids[keep]
    return best, best_finder, FastRunStats(iterations_executed, rounds_executed)


def test_numpy_draw_contract():
    """The NumPy stream equalities the fused simulators rely on.

    ``repro.sim.fast`` reads both legs' sign bits from one float32
    ``random`` call (each value ``>= 0.5`` exactly when a range-2
    ``integers`` draw would give 1) and both leg lengths from one
    ``geometric`` call; ``repro.lowerbound.colony`` draws a block of
    rounds with one ``random((b, n))``.  Each must equal the separate
    calls it replaces, value for value and in the generator state
    afterwards, or the report's streams move.  ``p >= 1/3`` takes
    ``geometric``'s search branch, smaller ``p`` its inversion branch.
    """

    def same_stream(fused, separate, seed):
        fused_rng = np.random.default_rng(seed)
        separate_rng = np.random.default_rng(seed)
        # An odd count first leaves half a 64-bit word buffered.
        fused_rng.integers(0, 2, size=3)
        separate_rng.integers(0, 2, size=3)
        assert np.array_equal(fused(fused_rng), separate(separate_rng))
        assert fused_rng.bit_generator.state == separate_rng.bit_generator.state

    for seed in range(20):
        for count in (1, 2, 7, 19):
            same_stream(
                lambda g: g.random(2 * count, dtype=np.float32) >= 0.5,
                lambda g: np.concatenate(
                    [g.integers(0, 2, size=count), g.integers(0, 2, size=count)]
                ) == 1,
                seed,
            )
            for p in (0.01, 0.2, 1 / 3, 0.5, 0.9):
                same_stream(
                    lambda g: g.geometric(p, size=2 * count),
                    lambda g: np.concatenate(
                        [g.geometric(p, size=count), g.geometric(p, size=count)]
                    ),
                    seed,
                )
            same_stream(
                lambda g: g.random((5, count)),
                lambda g: np.stack([g.random(count) for _ in range(5)]),
                seed,
            )


class TestSampleSorties:
    def test_sample_sorties_shapes_and_ranges(self, rng):
        plus_v, lv, plus_h, lh = _sample_sorties(rng, 0.25, 1000)
        for array in (plus_v, lv, plus_h, lh):
            assert array.shape == (1000,)
        assert plus_v.dtype == plus_h.dtype == np.bool_
        assert lv.dtype == lh.dtype == np.int64
        # Both directions occur on both legs.
        assert 0.4 <= plus_v.mean() <= 0.6 and 0.4 <= plus_h.mean() <= 0.6
        lengths = np.concatenate([lv, lh])
        assert (lengths >= 0).all()
        # Geometric(0.25) - 1 has mean 3; 2000 draws keep this tight.
        assert 2.5 <= lengths.mean() <= 3.5


class TestSortieLegacyTwin:
    def test_sampler_and_hit_test_match_four_call_draws(self):
        """The pieces every per-trial loop shares (L-shape, uniform and
        doubly uniform agents) against the four-call draws and the
        dense hit oracle."""
        targets = [(3, 2), (-2, -1), (4, 0), (0, 3), (0, -2), (1, 1)]
        for seed in range(10):
            for stop_probability in (0.1, 0.5):
                legacy_rng = np.random.default_rng(seed)
                fused_rng = np.random.default_rng(seed)
                sv = legacy_rng.integers(0, 2, size=40) * 2 - 1
                sh = legacy_rng.integers(0, 2, size=40) * 2 - 1
                lv = legacy_rng.geometric(stop_probability, size=40) - 1
                lh = legacy_rng.geometric(stop_probability, size=40) - 1
                sorties = _sample_sorties(fused_rng, stop_probability, 40)
                plus_v, lengths_v, plus_h, lengths_h = sorties
                assert np.array_equal(np.where(plus_v, 1, -1), sv)
                assert np.array_equal(np.where(plus_h, 1, -1), sh)
                assert np.array_equal(lengths_v, lv)
                assert np.array_equal(lengths_h, lh)
                assert fused_rng.bit_generator.state == legacy_rng.bit_generator.state
                for target in targets:
                    hit, moves = _legacy_sortie_hits(target, sv, lv, sh, lh)
                    found = _sortie_hits(target, *sorties)
                    if found is None:
                        assert not hit.any()
                    else:
                        assert np.array_equal(found[0], hit)
                        assert np.array_equal(found[1][hit], moves[hit])


class TestLShapeLegacyTwin:
    """The fused sortie loop is bit-identical to the four-call loop:
    same first find, finder and diagnostics, and the same generator
    state afterwards."""

    @pytest.mark.parametrize(
        "stop_probability, n_agents, target, move_budget",
        [
            (1 / 16, 8, (16, 16), 10**6),     # E15's shape: a far corner
            (0.05, 19, (-7, 3), 400),         # retire-and-prune against a tight budget
            (0.4, 3, (0, 2), 10_000),         # on-axis target, geometric search branch
            (1 / 3, 5, (0, -1), 1_000),       # the search branch's boundary
            (0.5, 1, (2, 0), 100),            # one agent
            (0.2, 4, (0, 0), 10),             # origin target draws nothing
        ],
    )
    def test_matches_four_call_loop(
        self, stop_probability, n_agents, target, move_budget
    ):
        for seed in range(6):
            legacy_rng = np.random.default_rng(seed)
            fused_rng = np.random.default_rng(seed)
            m_moves, finder, stats = _legacy_lshape_first_find(
                stop_probability, n_agents, target, legacy_rng, move_budget
            )
            outcome = lshape_first_find(
                stop_probability, n_agents, target, fused_rng, move_budget
            )
            assert (outcome.m_moves, outcome.finder, outcome.stats) == (
                m_moves, finder, stats
            )
            assert fused_rng.bit_generator.state == legacy_rng.bit_generator.state


class TestLShapeFirstFind:
    def test_finds_near_target(self, rng):
        outcome = lshape_first_find(0.125, 4, (2, 1), rng, move_budget=100_000)
        assert outcome.found
        assert outcome.m_moves is not None and outcome.m_moves >= 3

    def test_target_at_origin(self, rng):
        outcome = lshape_first_find(0.5, 2, (0, 0), rng, 100)
        assert outcome.found and outcome.m_moves == 0

    def test_m_moves_at_least_manhattan_distance(self, rng):
        # The L-path to (x, y) costs at least |x| + |y| moves.
        for target in [(3, 2), (0, 5), (-4, 1)]:
            outcome = lshape_first_find(0.1, 8, target, rng, 1_000_000)
            assert outcome.found
            assert outcome.m_moves >= abs(target[0]) + abs(target[1])

    def test_tiny_budget_fails(self, rng):
        outcome = lshape_first_find(0.125, 1, (6, 6), rng, move_budget=5)
        assert not outcome.found
        assert outcome.m_moves is None

    def test_mean_matches_theory_single_agent(self, rng):
        """E[M_moves] for one agent ~ 4D/(1-q) envelope (Theorem 3.5)."""
        distance = 16
        target = (distance, distance)  # hardest corner
        samples = [
            lshape_first_find(1 / distance, 1, target, rng, 10**7).m_moves
            for _ in range(300)
        ]
        mean = float(np.mean(samples))
        bound = theory.expected_moves_upper_bound(distance, 1)
        assert mean <= bound  # the proof's explicit envelope holds

    def test_more_agents_never_slower(self, rng_factory):
        distance, target = 32, (20, -13)
        means = []
        for n_agents in (1, 8, 64):
            generator = rng_factory(17)
            samples = [
                lshape_first_find(
                    1 / distance, n_agents, target, generator, 10**7
                ).m_moves
                for _ in range(150)
            ]
            means.append(np.mean(samples))
        assert means[1] < means[0]
        assert means[2] < means[1]

    def test_parameter_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.0, 1, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(1.0, 1, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.5, 0, (1, 1), rng, 10)
        with pytest.raises(InvalidParameterError):
            lshape_first_find(0.5, 1, (1, 1), rng, 0)
