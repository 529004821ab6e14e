"""Unit tests for repro.sim.stats, repro.sim.runner, repro.sim.rng."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.rng import derive_seed, generator_from, spawn_generators, trial_generators
from repro.sim.runner import (
    ExperimentRow,
    SimulationTrial,
    Sweep,
    grid_product,
    rows_to_markdown,
)
from repro.sim.stats import (
    Estimate,
    bootstrap_mean_ci,
    fit_loglog_slope,
    fit_ratio,
    geometric_mean,
    mean_ci,
    normal_quantile,
    summarize,
)


class TestNormalQuantile:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.5, 0.0),
            (0.975, 1.959964),
            (0.025, -1.959964),
            (0.84134, 1.0),
            (0.999, 3.090232),
            (0.001, -3.090232),
        ],
    )
    def test_known_values(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, abs=2e-4)

    def test_symmetry(self):
        for p in (0.6, 0.9, 0.99):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-9)

    def test_rejects_boundary(self):
        with pytest.raises(InvalidParameterError):
            normal_quantile(0.0)
        with pytest.raises(InvalidParameterError):
            normal_quantile(1.0)


class TestEstimates:
    def test_mean_ci_basic(self):
        estimate = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert estimate.mean == 2.5
        assert estimate.ci_low < 2.5 < estimate.ci_high
        assert estimate.n_samples == 4
        assert estimate.contains(2.5)

    def test_single_sample_degenerate(self):
        estimate = mean_ci([7.0])
        assert estimate.mean == estimate.ci_low == estimate.ci_high == 7.0

    def test_ci_narrows_with_samples(self, rng):
        small = mean_ci(rng.normal(0, 1, 50))
        large = mean_ci(rng.normal(0, 1, 5000))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_ci_coverage_on_synthetic_data(self, rng):
        covered = 0
        trials = 400
        for _ in range(trials):
            samples = rng.normal(10.0, 2.0, 40)
            if mean_ci(samples).contains(10.0):
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.04)

    def test_bootstrap_ci(self, rng):
        samples = rng.exponential(5.0, 300)
        estimate = bootstrap_mean_ci(samples, rng)
        assert estimate.ci_low < np.mean(samples) < estimate.ci_high

    def test_bootstrap_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            bootstrap_mean_ci([], rng)
        with pytest.raises(InvalidParameterError):
            bootstrap_mean_ci([1.0, 2.0], rng, n_resamples=2)

    def test_summarize_is_mean_ci(self):
        assert summarize([1.0, 3.0]).mean == mean_ci([1.0, 3.0]).mean

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            mean_ci([])

    def test_str_rendering(self):
        text = str(mean_ci([1.0, 2.0, 3.0]))
        assert "n=3" in text


class TestKolmogorovSmirnov:
    def test_identical_samples_zero_distance(self):
        from repro.sim.stats import ks_statistic

        data = [1.0, 2.0, 3.0, 4.0]
        assert ks_statistic(data, data) == 0.0

    def test_disjoint_samples_distance_one(self):
        from repro.sim.stats import ks_statistic

        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_symmetry(self, rng):
        from repro.sim.stats import ks_statistic

        a = rng.normal(0, 1, 200)
        b = rng.normal(0.5, 1, 300)
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_same_distribution_passes_threshold(self, rng):
        from repro.sim.stats import ks_statistic, ks_two_sample_threshold

        a = rng.exponential(2.0, 2000)
        b = rng.exponential(2.0, 2000)
        assert ks_statistic(a, b) <= ks_two_sample_threshold(2000, 2000)

    def test_different_distribution_fails_threshold(self, rng):
        from repro.sim.stats import ks_statistic, ks_two_sample_threshold

        a = rng.exponential(2.0, 2000)
        b = rng.exponential(3.0, 2000)
        assert ks_statistic(a, b) > ks_two_sample_threshold(2000, 2000)

    def test_validation(self):
        from repro.sim.stats import ks_statistic, ks_two_sample_threshold

        with pytest.raises(InvalidParameterError):
            ks_statistic([], [1.0])
        with pytest.raises(InvalidParameterError):
            ks_two_sample_threshold(0, 5)
        with pytest.raises(InvalidParameterError):
            ks_two_sample_threshold(5, 5, alpha=1.5)


class TestFits:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(InvalidParameterError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(InvalidParameterError):
            geometric_mean([])

    def test_loglog_slope_recovers_exponent(self):
        xs = [2.0, 4.0, 8.0, 16.0, 32.0]
        ys = [3.0 * x**2 for x in xs]
        slope, intercept, r2 = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert math.exp(intercept) == pytest.approx(3.0, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_loglog_slope_with_noise(self, rng):
        xs = np.array([2.0**i for i in range(4, 12)])
        ys = 5.0 * xs**1.5 * rng.lognormal(0.0, 0.05, xs.size)
        slope, _, r2 = fit_loglog_slope(xs, ys)
        assert slope == pytest.approx(1.5, abs=0.1)
        assert r2 > 0.97

    def test_loglog_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope([1.0], [2.0])
        with pytest.raises(InvalidParameterError):
            fit_loglog_slope([1.0, -2.0], [1.0, 2.0])

    def test_fit_ratio(self):
        mean_ratio, max_ratio = fit_ratio([2.0, 4.0], [1.0, 1.0])
        assert mean_ratio == pytest.approx(3.0)
        assert max_ratio == pytest.approx(4.0)
        with pytest.raises(InvalidParameterError):
            fit_ratio([1.0], [0.0])
        with pytest.raises(InvalidParameterError):
            fit_ratio([1.0], [1.0, 2.0])


class TestRng:
    def test_generator_from_accepts_int_seed(self):
        generator = generator_from(42)
        assert isinstance(generator, np.random.Generator)

    def test_generator_from_passes_through(self, rng):
        assert generator_from(rng) is rng

    def test_generator_from_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            generator_from(-1)

    def test_spawned_streams_differ(self):
        a, b = spawn_generators(7, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        first = [g.random() for g in spawn_generators(7, 3)]
        second = [g.random() for g in spawn_generators(7, 3)]
        assert first == second

    def test_derive_seed_is_stable_and_distinct(self):
        a1 = np.random.default_rng(derive_seed(1, 2, 3)).random()
        a2 = np.random.default_rng(derive_seed(1, 2, 3)).random()
        b = np.random.default_rng(derive_seed(1, 2, 4)).random()
        assert a1 == a2
        assert a1 != b

    def test_trial_generators_count(self):
        assert len(trial_generators(1, [0, 0], 5)) == 5

    def test_negative_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            derive_seed(1, -2)


class TestSweep:
    def test_grid_product(self):
        grid = grid_product(a=[1, 2], b=["x"])
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_grid_product_empty_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            grid_product(a=[])
        with pytest.raises(InvalidParameterError):
            grid_product()

    def test_sweep_runs_and_aggregates(self):
        rows = Sweep(
            _CORNER_TRIAL, grid_product(D=[4, 16]), trials=20, seed=3
        ).run()
        assert [row.params for row in rows] == [{"D": 4}, {"D": 16}]
        assert all(row.estimate.n_samples == 20 for row in rows)
        assert all(row.extras["find_rate"] == 1.0 for row in rows)
        # The farther corner costs more moves.
        assert rows[0].estimate.mean < rows[1].estimate.mean

    def test_sweep_is_reproducible(self):
        # Uncached, so the second run simulates again.
        first = Sweep(_UNCACHED_TRIAL, [{"D": 8}], trials=5, seed=9).run()
        second = Sweep(_UNCACHED_TRIAL, [{"D": 8}], trials=5, seed=9).run()
        assert first[0].estimate == second[0].estimate

    def test_sweep_validation(self):
        with pytest.raises(InvalidParameterError):
            Sweep(_CORNER_TRIAL, [], trials=1, seed=1)
        with pytest.raises(InvalidParameterError):
            Sweep(_CORNER_TRIAL, [{"D": 4}], trials=0, seed=1)
        with pytest.raises(InvalidParameterError):
            Sweep(_CORNER_TRIAL, [{"D": 4}], trials=1, seed=1, workers=0)

    def test_rows_to_markdown(self):
        rows = [
            ExperimentRow(
                params={"D": 8}, estimate=mean_ci([1.0, 2.0]), extras={"bound": 4.0}
            )
        ]
        table = rows_to_markdown(rows, ["D"], "moves", ["bound"])
        lines = table.splitlines()
        assert lines[0].startswith("| D | moves | ci95 | bound |")
        assert "| 8 |" in lines[2]
        assert "4" in lines[2]


def _corner_request(params):
    distance = int(params["D"])
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance),
        n_agents=2,
        target=(distance, distance),
        move_budget=1_000_000,
    )


_CORNER_TRIAL = SimulationTrial(_corner_request, backend="batched")
_UNCACHED_TRIAL = SimulationTrial(
    _corner_request, backend="batched", cache=False
)
