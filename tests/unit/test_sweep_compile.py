"""Sweep -> batched compilation: addressing, one job per point, caching.

The load-bearing invariant: a compiled grid point's trial ``t`` draws
from ``derive_seed(seed, *seed_keys, point_index, t)`` — the address a
hand-written per-trial loop uses — so a sweep on a per-trial backend is
bit-identical to that loop, and the batched backend changes only the
stream pooling, not the addressing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.core.algorithm1 import Algorithm1
from repro.grid.world import GridWorld
from repro.sim import AlgorithmSpec, SimulationRequest
from repro.sim.engine import EngineConfig, SearchEngine
from repro.sim.kernels import SENTINEL, batch_lshape
from repro.sim.rng import derive_seed
from repro.sim.runner import SimulationTrial, Sweep, censored_moves
from repro.sim.service import backend_run_count
from repro.sim.stats import mean_ci

GRID = [{"D": 8}, {"D": 12}]


def _factory(params):
    """Request factory shared by every sweep below."""
    distance = int(params["D"])
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance),
        n_agents=2,
        target=(distance, distance),
        move_budget=100_000,
    )


def _per_trial(params, rng):
    """The same workload as a hand-written per-trial function: the
    faithful engine, seeded the way the ``reference`` backend seeds
    trial ``t`` (``rng`` is that trial's ``derive_seed`` value)."""
    distance = int(params["D"])
    world = GridWorld(target=(distance, distance), distance_bound=distance)
    outcome = SearchEngine(EngineConfig(move_budget=100_000)).run(
        Algorithm1(distance), 2, world, rng=rng
    )
    return float(outcome.moves_or_budget)


def _found_metric(outcome):
    """Metric override: whether the colony found the target."""
    return 1.0 if outcome.found else 0.0


class TestCompilation:
    def test_compiled_sweep_is_recognized(self):
        sweep = Sweep(SimulationTrial(_factory), GRID, trials=3, seed=1)
        assert len(sweep.compile_requests()) == len(GRID)
        with pytest.raises(InvalidParameterError):
            Sweep(_per_trial, GRID, trials=3, seed=1)

    def test_one_job_per_point(self):
        before = backend_run_count()
        Sweep(
            SimulationTrial(_factory, backend="batched", cache=False),
            GRID, trials=7, seed=1, workers=4,
        ).run()
        assert backend_run_count() == before + len(GRID)

    def test_compile_requests_rebinds_addressing(self):
        sweep = Sweep(
            SimulationTrial(_factory), GRID, trials=5, seed=17, seed_keys=(3,)
        )
        requests = sweep.compile_requests()
        assert [r.n_trials for r in requests] == [5, 5]
        assert [r.seed for r in requests] == [17, 17]
        assert [r.seed_keys for r in requests] == [(3, 0), (3, 1)]

    def test_compile_requests_rejects_plain_sweeps(self):
        with pytest.raises(InvalidParameterError):
            Sweep(_per_trial, GRID, trials=3, seed=1).compile_requests()


class TestBitIdentity:
    def test_compiled_on_per_trial_backend_matches_plain_sweep(self):
        """Compilation must not change the derive_seed(seed, i, t) streams."""
        plain = [
            mean_ci([
                _per_trial(point, derive_seed(17, index, t))
                for t in range(6)
            ])
            for index, point in enumerate(GRID)
        ]
        compiled = Sweep(
            SimulationTrial(_factory, backend="reference"),
            GRID, trials=6, seed=17,
        ).run()
        assert [row.params for row in compiled] == GRID
        assert [row.estimate for row in compiled] == plain

    def test_compiled_matches_manual_derive_seed_addressing(self):
        rows = Sweep(
            SimulationTrial(_factory, backend="reference"),
            GRID, trials=4, seed=23, seed_keys=(9,),
        ).run()
        for index, point in enumerate(GRID):
            manual = [
                _per_trial(point, derive_seed(23, 9, index, t))
                for t in range(4)
            ]
            assert rows[index].estimate.mean == pytest.approx(
                float(np.mean(manual)), abs=0
            )

    def test_point_sharding_across_workers_is_bit_identical(self):
        # Uncached, so the sharded run simulates rather than replays.
        trial = SimulationTrial(_factory, backend="reference", cache=False)
        serial = Sweep(trial, GRID, trials=4, seed=17).run()
        sharded = Sweep(trial, GRID, trials=4, seed=17, workers=2).run()
        assert [r.estimate for r in serial] == [r.estimate for r in sharded]

    def test_unpicklable_factory_falls_back_to_serial(self):
        offset = 8
        trial = SimulationTrial(
            lambda params: _factory({"D": int(params["D"]) + offset - 8})
        )
        rows = Sweep(trial, GRID, trials=3, seed=5, workers=4).run()
        reference = Sweep(trial, GRID, trials=3, seed=5).run()
        assert [r.estimate for r in rows] == [r.estimate for r in reference]


class TestBatchedCompilation:
    def test_batched_rows_carry_find_rate_extras(self):
        rows = Sweep(
            SimulationTrial(_factory), GRID, trials=10, seed=3
        ).run()
        for row in rows:
            assert 0.0 <= row.extras["find_rate"] <= 1.0
            assert row.estimate.mean > 0

    def test_metric_override(self):
        rows = Sweep(
            SimulationTrial(_factory, metric=_found_metric),
            GRID, trials=10, seed=3,
        ).run()
        for row in rows:
            # The found metric's mean IS the find rate.
            assert row.estimate.mean == pytest.approx(row.extras["find_rate"])

    def test_default_metric_is_censored_moves(self):
        from repro.sim import simulate

        outcome = simulate(
            _factory({"D": 8}), backend="batched", cache=False
        ).outcome
        assert censored_moves(outcome) == float(outcome.moves_or_budget)

    def test_compiled_batched_equals_plain_sweep_in_distribution(self):
        """The compiled sweep and a direct kernel call on a stream of its
        own agree in mean within Monte-Carlo noise.

        Coarse by necessity — colony M_moves is heavy-tailed, so two
        independent 1000-trial means can differ by ~20%; the tight KS
        equivalence checks live in
        tests/integration/test_backend_equivalence.py.
        """
        trials = 1000
        best, *_ = batch_lshape(
            np.random.default_rng(derive_seed(101, 0)), 1 / 8, 2, trials,
            (8, 8), 100_000,
        )
        plain = mean_ci(np.where(best == SENTINEL, 100_000, best).tolist())
        compiled = Sweep(
            SimulationTrial(_factory), [{"D": 8}], trials=trials, seed=303
        ).run()
        assert compiled.pop().estimate.mean == pytest.approx(
            plain.mean, rel=0.35
        )

    def test_repeated_sweep_points_are_served_from_cache(self):
        sweep = Sweep(SimulationTrial(_factory), GRID, trials=8, seed=42)
        before = backend_run_count()
        first = sweep.run()
        after_first = backend_run_count()
        second = sweep.run()
        after_second = backend_run_count()
        assert after_first == before + len(GRID)
        assert after_second == after_first  # zero simulations
        assert [r.estimate for r in first] == [r.estimate for r in second]

    def test_cache_false_trial_forces_execution(self):
        sweep = Sweep(
            SimulationTrial(_factory, cache=False), GRID, trials=8, seed=43
        )
        before = backend_run_count()
        sweep.run()
        sweep.run()
        assert backend_run_count() == before + 2 * len(GRID)
