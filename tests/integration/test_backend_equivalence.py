"""Statistical equivalence of the batched backend against the reference.

The batched backend samples iterations from exactly the process
distribution, so its colony ``M_moves`` must be equal in distribution
to the faithful engine's.  These tests check that with a two-sample KS
test (Algorithm 1) and mean comparisons (Non-Uniform-Search,
Algorithm 5), plus KS checks against ``reference`` for the three
algorithm families the batch pass gained: ``doubly-uniform``,
``random-walk``, and ``feinerman``.  Tighter vectorized-sample checks
live in ``tests/unit/test_golden_distributions.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.stats import ks_statistic, ks_two_sample_threshold


def _moves(spec, n_agents, target, budget, trials, seed, backend):
    request = SimulationRequest(
        algorithm=spec,
        n_agents=n_agents,
        target=target,
        move_budget=budget,
        n_trials=trials,
        seed=seed,
        distance_bound=64,
    )
    return simulate(request, backend=backend).moves_or_budget().astype(float)


class TestBatchedVsReference:
    def test_algorithm1_distributions_ks_close(self):
        spec = AlgorithmSpec.algorithm1(8)
        trials = 300
        via_reference = _moves(spec, 2, (5, 3), 500_000, trials, 41, "reference")
        via_batched = _moves(spec, 2, (5, 3), 500_000, trials, 42, "batched")
        distance = ks_statistic(via_reference, via_batched)
        # alpha = 0.001: flake-resistant while still sensitive to any
        # systematic distribution mismatch at these sample sizes.
        assert distance <= ks_two_sample_threshold(trials, trials, alpha=0.001)

    def test_nonuniform_means_match(self):
        spec = AlgorithmSpec.nonuniform(8, 1)
        via_reference = _moves(spec, 2, (4, -2), 500_000, 200, 3, "reference")
        via_batched = _moves(spec, 2, (4, -2), 500_000, 400, 4, "batched")
        assert via_reference.mean() == pytest.approx(
            via_batched.mean(), rel=0.2
        )

    def test_uniform_means_match(self):
        spec = AlgorithmSpec.uniform(1)
        via_reference = _moves(spec, 2, (3, 3), 2_000_000, 120, 5, "reference")
        via_batched = _moves(spec, 2, (3, 3), 2_000_000, 400, 6, "batched")
        assert via_reference.mean() == pytest.approx(
            via_batched.mean(), rel=0.25
        )


class TestNewlyBatchedAlgorithms:
    """Equivalence for the families the batch pass gained in this PR."""

    def _ks_vs_reference(self, spec, target, budget, ref_trials, batch_trials, seed):
        via_reference = _moves(spec, 2, target, budget, ref_trials, seed, "reference")
        via_batched = _moves(
            spec, 2, target, budget, batch_trials, seed + 1, "batched"
        )
        distance = ks_statistic(via_reference, via_batched)
        # alpha = 0.001, as above: flake-resistant yet sensitive to any
        # systematic mismatch.
        assert distance <= ks_two_sample_threshold(
            ref_trials, batch_trials, alpha=0.001
        )

    def test_random_walk_vs_reference_ks(self):
        self._ks_vs_reference(
            AlgorithmSpec.random_walk(), (3, 2), 20_000, 250, 500, 51
        )

    def test_feinerman_vs_reference_ks(self):
        self._ks_vs_reference(
            AlgorithmSpec.feinerman(), (5, 3), 100_000, 300, 900, 61
        )

    def test_doubly_uniform_vs_reference_ks(self):
        self._ks_vs_reference(
            AlgorithmSpec.doubly_uniform(1), (3, 3), 1_000_000, 250, 750, 71
        )

    def test_doubly_uniform_means_match_reference(self):
        spec = AlgorithmSpec.doubly_uniform(1)
        via_reference = _moves(spec, 2, (3, 3), 1_000_000, 250, 81, "reference")
        via_batched = _moves(spec, 2, (3, 3), 1_000_000, 750, 82, "batched")
        assert via_reference.mean() == pytest.approx(
            via_batched.mean(), rel=0.25
        )

    def test_random_walk_find_rates_match_reference(self):
        """Censored-at-budget mass agrees (the walk's mean is a budget
        artifact, so the find rate is the robust comparison)."""
        budget = 20_000
        spec = AlgorithmSpec.random_walk()
        via_reference = _moves(spec, 2, (3, 2), budget, 250, 91, "reference")
        via_batched = _moves(spec, 2, (3, 2), budget, 750, 92, "batched")
        rate_reference = float((via_reference < budget).mean())
        rate_batched = float((via_batched < budget).mean())
        assert rate_reference == pytest.approx(rate_batched, abs=0.1)


class TestParallelSweepBitIdentity:
    def test_sweep_workers_4_reproduces_serial_reference_rows(self):
        """The acceptance criterion: parallel == serial, bit for bit."""
        from repro.sim.runner import SimulationTrial, Sweep, grid_product

        # Uncached, so the parallel run simulates rather than replays.
        trial = SimulationTrial(
            _reference_request, backend="reference", cache=False
        )
        grid = grid_product(distance=[8, 12], n=[1, 2])
        serial = Sweep(trial, grid, trials=3, seed=17, workers=1).run()
        parallel = Sweep(trial, grid, trials=3, seed=17, workers=4).run()
        for row_s, row_p in zip(serial, parallel):
            assert row_s.params == row_p.params
            assert row_s.estimate == row_p.estimate

    def test_facade_workers_shard_reference_backend_identically(self):
        spec = AlgorithmSpec.algorithm1(8)
        request = SimulationRequest(
            algorithm=spec, n_agents=2, target=(5, 3),
            move_budget=200_000, n_trials=6, seed=9,
        )
        serial = simulate(request, backend="reference", workers=1)
        sharded = simulate(request, backend="reference", workers=4)
        assert list(serial.moves_or_budget()) == list(sharded.moves_or_budget())
        assert [o.m_steps for o in serial.outcomes] == [
            o.m_steps for o in sharded.outcomes
        ]


def _reference_request(params):
    """Request factory for the engine-backed sweep."""
    distance = int(params["distance"])
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance),
        n_agents=int(params["n"]),
        target=(distance, distance),
        move_budget=100_000,
        distance_bound=distance,
    )
