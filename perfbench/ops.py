"""The seeded request generator shared by the ``local`` and ``remote`` workloads.

A workload is a list of rounds.  Every round holds the same request
shapes, so every seed asks for the same kind and amount of work; the
seed picks each request's simulation seed, target quadrant and the order
of the round.

Size classes (percentiles are taken per class, never across one):

* ``small``: ``n_trials`` 1 and 16 on all six batched families.
* ``large``: cold ``n_trials`` 200 on all six families and 4000 on the
  two L-shape families (uniform at 4000 costs seconds on its own).
* ``replay``: an exact repeat of an earlier ``large`` request.

Within a class the shapes are weighted so that p50 and p90 fall inside
one shape's spread rather than in the gap between two shapes, where a
small shift in the mix would move them a lot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sim import AlgorithmSpec, SimulationRequest

N_AGENTS = 8
DISTANCE = 32
MOVE_BUDGET = 100_000
# Eight mirror images of one point: every target is equally far away.
TARGETS = tuple(
    (sx * a, sy * b)
    for a, b in ((24, 17), (17, 24))
    for sx in (1, -1)
    for sy in (1, -1)
)
FAMILIES = {
    "algorithm1": lambda: AlgorithmSpec.algorithm1(DISTANCE),
    "nonuniform": lambda: AlgorithmSpec.nonuniform(DISTANCE, 1),
    "uniform": lambda: AlgorithmSpec.uniform(1),
    "doubly-uniform": lambda: AlgorithmSpec.doubly_uniform(1),
    "random-walk": AlgorithmSpec.random_walk,
    "feinerman": AlgorithmSpec.feinerman,
}
# (class, family, n_trials, copies per round).  Thirteen small shapes put
# the small p50 in the middle of one shape (nonuniform n=1 twice); uniform
# n=200 three times puts the large p50 inside that shape's spread.
SHAPES: Tuple[Tuple[str, str, int, int], ...] = tuple(
    [("small", family, n, 1) for family in FAMILIES for n in (1, 16)]
    + [("small", "nonuniform", 1, 1)]
    + [("large", family, 200, 3 if family == "uniform" else 1) for family in FAMILIES]
    + [("large", family, 4000, 1) for family in ("algorithm1", "nonuniform")]
)


@dataclass(frozen=True)
class Op:
    kind: str  # "small", "large" or "replay"
    request: SimulationRequest
    round: int
    original: Optional[int] = None  # index of the op a replay repeats


def request_for(family: str, n_trials: int, rng: np.random.Generator) -> SimulationRequest:
    return SimulationRequest(
        algorithm=FAMILIES[family](),
        n_agents=N_AGENTS,
        target=TARGETS[int(rng.integers(len(TARGETS)))],
        move_budget=MOVE_BUDGET,
        n_trials=n_trials,
        seed=int(rng.integers(2**31)),
    )


def first_request(rng: np.random.Generator) -> SimulationRequest:
    """The request that ends set-up: small, and never seen by the cache."""
    return request_for("algorithm1", 16, rng)


def cold_round(rng: np.random.Generator, number: int) -> List[Op]:
    """One round of cold requests, each with a fresh seed, in seeded order."""
    ops = [
        Op(kind, request_for(family, n_trials, rng), number)
        for kind, family, n_trials, copies in SHAPES
        for _ in range(copies)
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def rounds_for(seconds: float, round_seconds: float, min_rounds: int) -> int:
    """Rounds sized from ``--seconds`` alone, so equal settings give equal work."""
    return max(min_rounds, int(round(seconds / round_seconds)))


def local_ops(seed: int, rounds: int) -> Tuple[List[Op], List[Op]]:
    """(cold phase, replay phase): every large request is replayed once,
    round by round, in seeded order within the round."""
    rng = np.random.default_rng([seed, 1])
    cold = [op for number in range(rounds) for op in cold_round(rng, number)]
    replays = []
    for number in range(rounds):
        large = [i for i, op in enumerate(cold) if op.kind == "large" and op.round == number]
        replays += [Op("replay", cold[i].request, number, i) for i in rng.permutation(large)]
    return cold, replays


def remote_ops(seed: int, rounds: int) -> List[Op]:
    """Cold rounds with the previous round's large requests replayed in between."""
    rng = np.random.default_rng([seed, 2])
    ops: List[Op] = []
    previous: List[int] = []
    for number in range(rounds):
        round_ops = cold_round(rng, number)
        replays = [Op("replay", ops[i].request, number, i) for i in previous]
        merged = round_ops + replays
        order = rng.permutation(len(merged))
        start = len(ops)
        ops.extend(merged[i] for i in order)
        previous = [
            start + position
            for position, i in enumerate(order)
            if merged[i].kind == "large"
        ]
    return ops
