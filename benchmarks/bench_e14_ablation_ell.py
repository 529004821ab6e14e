"""E14 bench — b vs l ablation for Algorithm 5 (discussion section)."""

from __future__ import annotations

from conftest import report

from repro.core.uniform import calibrated_K
from repro.experiments.e14_ablation_ell import run
from repro.sim import AlgorithmSpec, SimulationRequest, simulate

_REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.uniform(2, calibrated_K(2)),
    n_agents=4,
    target=(32, 32),
    move_budget=50_000_000,
    seed=20140507,
)


def test_e14_coarse_coin_kernel(benchmark):
    result = benchmark(simulate, _REQUEST, "batched")
    assert result.outcome.found


def test_e14_report(benchmark):
    result = benchmark.pedantic(run, args=("smoke",), rounds=1, iterations=1)
    report(result)
