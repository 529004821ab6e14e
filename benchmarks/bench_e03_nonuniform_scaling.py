"""E03 bench — Algorithm 1 scaling (Theorem 3.5)."""

from __future__ import annotations

from conftest import report

from repro.experiments.e03_nonuniform_scaling import run
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

_REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.algorithm1(128),
    n_agents=16,
    target=(128, 128),
    move_budget=50_000_000,
    seed=20140507,
)


def test_e03_first_find_kernel(benchmark):
    result = benchmark(simulate, _REQUEST, "batched")
    assert result.outcome.found


def test_e03_report(benchmark):
    result = benchmark.pedantic(run, args=("smoke",), rounds=1, iterations=1)
    report(result)
