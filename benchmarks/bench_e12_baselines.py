"""E12 bench — head-to-head baseline comparison."""

from __future__ import annotations

from conftest import report

from repro.experiments.e12_baselines import run
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

_REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.feinerman(),
    n_agents=8,
    target=(32, 32),
    move_budget=10_000_000,
    seed=20140507,
)


def test_e12_feinerman_kernel(benchmark):
    result = benchmark(simulate, _REQUEST, "batched")
    assert result.outcome.found


def test_e12_report(benchmark):
    result = benchmark.pedantic(run, args=("smoke",), rounds=1, iterations=1)
    report(result)
