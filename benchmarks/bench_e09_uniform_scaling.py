"""E09 bench — Algorithm 5 performance (Theorem 3.14)."""

from __future__ import annotations

from conftest import report

from repro.core.uniform import calibrated_K
from repro.experiments.e09_uniform_scaling import run
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

_REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.uniform(1, calibrated_K(1)),
    n_agents=8,
    target=(32, 32),
    move_budget=50_000_000,
    seed=20140507,
)


def test_e09_uniform_first_find_kernel(benchmark):
    result = benchmark(simulate, _REQUEST, "batched")
    assert result.outcome.found


def test_e09_report(benchmark):
    result = benchmark.pedantic(run, args=("smoke",), rounds=1, iterations=1)
    report(result)
