"""Per-colony L-sortie simulator for experiments with bespoke noise.

:func:`lshape_first_find` advances one *iteration* at a time rather
than one coin flip, exploiting the closed forms:

* each walk leg's length is ``Geometric(p) - 1`` (one numpy draw);
* whether an L-shaped sortie visits the target, and after how many
  moves, is a closed-form predicate of the four iteration variables
  (see :mod:`repro.grid.geometry`).

Because the sorties are sampled from exactly the process distribution
(no conditioning tricks, no approximation), the outputs are equal in
distribution to the faithful engine's.  The colony minimum ``M_moves``
is exact, with the same retire-when-unimprovable policy as the engine.
E15 calls it once per trial with a per-trial stop probability; every
other caller goes through the ``batched`` kernels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.grid.geometry import Point
from repro.sim.metrics import FastRunStats, SearchOutcome

__all__ = ["FastRunStats", "lshape_first_find"]


def _sample_sorties(rng: np.random.Generator, stop_probability: float, count: int):
    """Sample ``count`` independent L-sorties with two Generator calls.

    Returns ``(plus_v, lengths_v, plus_h, lengths_h)``: each leg's
    direction as a bool (True for the positive direction) and its
    ``Geometric(p) - 1`` length.  The values, and the generator state
    afterwards, are those of the historical four draws of ``count``
    each — ``integers(0, 2)`` for the vertical then horizontal sign
    bits, ``geometric(p)`` for the vertical then horizontal legs:

    * a range-2 ``integers`` value is the top bit of one 32-bit word,
      and a float32 ``random`` value is that word's top 24 bits over
      ``2**24``, so ``random(dtype=float32) >= 0.5`` reads the same bit
      from the same word, at a fraction of ``integers``' call cost;
    * both fill value by value, so one call of ``2 * count`` is the two
      calls of ``count`` back to back.

    ``test_numpy_draw_contract`` pins these equalities.
    """
    plus = rng.random(2 * count, dtype=np.float32) >= 0.5
    lengths = rng.geometric(stop_probability, size=2 * count)
    lengths -= 1
    return plus[:count], lengths[:count], plus[count:], lengths[count:]


def _sortie_hits(target: Point, plus_v, lengths_v, plus_h, lengths_h):
    """Vectorized L-path hit test: ``(hit, moves_at_hit)``, or None when
    no sortie reaches the target.

    The closed form of :func:`repro.grid.geometry.l_path_hit_moves`: a
    target on the vertical leg is reached after ``|y|`` moves; on the
    horizontal leg, whose corner is ``(0, ±lengths_v)``, after
    ``lengths_v + |x|`` moves.
    """
    x, y = target
    if x == 0:
        # The vertical leg passes (0, y) iff it heads y's way far enough.
        hit = lengths_v >= abs(y)
        if y != 0:
            hit &= plus_v if y > 0 else ~plus_v
        if not np.count_nonzero(hit):
            return None
        return hit, np.full(hit.shape, abs(y), dtype=np.int64)
    # Off the vertical axis the corner must sit at height y: a rare
    # event for a far target, so most rounds stop at this one test.
    hit = lengths_v == abs(y)
    if not np.count_nonzero(hit):
        return None
    if y != 0:
        hit &= plus_v if y > 0 else ~plus_v
    hit &= plus_h if x > 0 else ~plus_h
    hit &= lengths_h >= abs(x)
    if not np.count_nonzero(hit):
        return None
    return hit, lengths_v + abs(x)


def lshape_first_find(
    stop_probability: float,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Colony ``M_moves`` for repeated L-sorties with one stop probability.

    Covers Algorithm 1 (``p = 1/D``) and Non-Uniform-Search
    (``p = 2^{-kl}``): both repeat identical sorties followed by an
    (uncharged) oracle return.
    """
    if not 0.0 < stop_probability < 1.0:
        raise InvalidParameterError(
            f"stop_probability must be in (0, 1), got {stop_probability}"
        )
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if move_budget < 1:
        raise InvalidParameterError(f"move_budget must be >= 1, got {move_budget}")
    if target == (0, 0):
        return SearchOutcome(
            found=True, m_moves=0, m_steps=0, finder=0,
            n_agents=n_agents, move_budget=move_budget, stats=FastRunStats(0, 0),
        )

    cumulative = np.zeros(n_agents, dtype=np.int64)
    agent_ids = np.arange(n_agents)
    best: Optional[int] = None
    best_finder: Optional[int] = None
    # Failsafe against pathological parameter corners; the budget prune
    # guarantees progress in expectation, this guards the worst case.
    expected_len = max(1.0, 2.0 * (1.0 / stop_probability - 1.0))
    max_rounds = int(200 * (move_budget / expected_len + 1)) + 10_000
    rounds_executed = 0
    iterations_executed = 0

    for _ in range(max_rounds):
        if agent_ids.size == 0:
            break
        count = agent_ids.size
        rounds_executed += 1
        iterations_executed += count
        pv, lv, ph, lh = _sample_sorties(rng, stop_probability, count)
        hits = _sortie_hits(target, pv, lv, ph, lh)
        if hits is not None:
            hit, moves_at_hit = hits
            totals = cumulative + moves_at_hit
            eligible = np.flatnonzero(hit & (totals <= move_budget))
            if eligible.size:
                # The first eligible agent with the least total, as an
                # argmin over the whole round would pick it.
                candidate_index = int(eligible[totals[eligible].argmin()])
                candidate_total = int(totals[candidate_index])
                if best is None or candidate_total < best:
                    best = candidate_total
                    best_finder = int(agent_ids[candidate_index])
        # Agents keep walking while they can still beat the budget and
        # the best find so far.  A hit agent retires by the same test:
        # its hit is a prefix of its sortie, so its new total is at
        # least the hit's, which is over the budget or not below best.
        cumulative += lv
        cumulative += lh
        limit = move_budget if best is None else min(move_budget, best)
        keep = cumulative < limit
        if np.count_nonzero(keep) < count:
            cumulative = cumulative[keep]
            agent_ids = agent_ids[keep]

    return SearchOutcome(
        found=best is not None,
        m_moves=best,
        m_steps=None,
        finder=best_finder,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=FastRunStats(iterations_executed, rounds_executed),
    )
