"""Vectorized, distribution-exact simulators for the paper's algorithms.

The faithful engine advances one coin flip at a time; these simulators
advance one *iteration* at a time, exploiting the closed forms:

* each walk leg's length is ``Geometric(p) - 1`` (one numpy draw);
* whether an L-shaped sortie visits the target, and after how many
  moves, is a closed-form predicate of the four iteration variables
  (see :mod:`repro.grid.geometry`).

Because the sorties are sampled from exactly the process distribution
(no conditioning tricks, no approximation), the outputs are equal in
distribution to the faithful engine's — an equivalence the integration
tests check statistically.

All simulators compute the exact colony minimum ``M_moves`` with the
same retire-when-unimprovable policy as the engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.uniform import phase_coin_exponent
from repro.errors import InvalidParameterError
from repro.grid.geometry import Point
from repro.sim.metrics import FastRunStats, SearchOutcome

__all__ = [
    "FastRunStats",
    "lshape_first_find",
    "fast_algorithm1",
    "fast_nonuniform",
    "fast_uniform",
    "fast_doubly_uniform",
    "fast_random_walk",
]


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
        return _found_at_origin(n_agents, move_budget)

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

    stats = FastRunStats(iterations_executed, rounds_executed)
    if best is None:
        return _not_found(n_agents, move_budget, stats)
    return SearchOutcome(
        found=True,
        m_moves=best,
        m_steps=None,
        finder=best_finder,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=stats,
    )


def fast_algorithm1(
    distance: int,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Fast path for Algorithm 1: sorties with stop probability ``1/D``."""
    if distance < 2:
        raise InvalidParameterError(f"distance must be >= 2, got {distance}")
    return lshape_first_find(1.0 / distance, n_agents, target, rng, move_budget)


def fast_nonuniform(
    distance: int,
    ell: int,
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
) -> SearchOutcome:
    """Fast path for Non-Uniform-Search: stop probability ``2^{-kl}``."""
    from repro.core.nonuniform import NonUniformSearch

    algorithm = NonUniformSearch(distance, ell)
    return lshape_first_find(
        algorithm.stop_probability, n_agents, target, rng, move_budget
    )


_SORTIE_CHUNK = 1 << 18


def fast_uniform(
    n_agents: int,
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    max_phase: int = 50,
) -> SearchOutcome:
    """Fast path for Algorithm 5 (uniform in ``D``).

    Agents are independent, so each is simulated to completion in turn:
    per phase, the number of sorties is one geometric draw
    (``Geometric(1/rho_i) - 1``) and the sorties themselves are sampled
    as one vectorized batch with a closed-form first-hit scan.  Later
    agents stop early once they can no longer beat the best find so
    far, preserving the exact colony minimum.
    """
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    if move_budget < 1:
        raise InvalidParameterError(f"move_budget must be >= 1, got {move_budget}")
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)

    best: Optional[int] = None
    best_finder: Optional[int] = None
    iterations_executed = 0
    rounds_executed = 0

    for agent_id in range(n_agents):
        limit = move_budget if best is None else min(move_budget, best)
        total, iterations, rounds = _simulate_uniform_agent(
            n_agents, ell, K, target, rng, limit, max_phase
        )
        iterations_executed += iterations
        rounds_executed += rounds
        if total is not None and (best is None or total < best):
            best = total
            best_finder = agent_id

    stats = FastRunStats(iterations_executed, rounds_executed)
    if best is None:
        return _not_found(n_agents, move_budget, stats)
    return SearchOutcome(
        found=True,
        m_moves=best,
        m_steps=None,
        finder=best_finder,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=stats,
    )


def _simulate_uniform_agent(
    n_agents: int,
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_limit: int,
    max_phase: int,
) -> Tuple[Optional[int], int, int]:
    """One agent's ``(moves_at_first_find, iterations, rounds)``.

    The move count is None if the agent exceeds the limit.  Sorties
    within one phase are sampled in chunks so that a phase with
    millions of expected calls (large ``K * l``) stays memory-bounded.
    """
    cumulative = 0
    phase = 0
    iterations = 0
    rounds = 0
    while phase < max_phase and cumulative < move_limit:
        phase += 1
        rounds += 1
        rho_i = 2.0 ** (phase_coin_exponent(phase, n_agents, ell, K) * ell)
        calls = int(rng.geometric(1.0 / rho_i)) - 1
        stop_p = 2.0 ** -(phase * ell)
        while calls > 0 and cumulative < move_limit:
            batch = min(calls, _SORTIE_CHUNK)
            calls -= batch
            iterations += batch
            pv, lv, ph, lh = _sample_sorties(rng, stop_p, batch)
            hits = _sortie_hits(target, pv, lv, ph, lh)
            lengths = lv + lh
            if hits is not None:
                hit, moves_at_hit = hits
                first = int(hit.argmax())
                moves_before = int(lengths[:first].sum())
                total = cumulative + moves_before + int(moves_at_hit[first])
                return (total if total <= move_limit else None), iterations, rounds
            cumulative += int(lengths.sum())
    return None, iterations, rounds


def fast_doubly_uniform(
    n_agents: int,
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    max_epoch: int = 40,
) -> SearchOutcome:
    """Fast path for the doubly uniform search (unknown ``D`` and ``n``).

    Mirrors :class:`repro.core.doubly_uniform.DoublyUniformSearch`:
    epoch ``j`` guesses ``n_j = 2^j`` and runs phases ``1..j`` of
    Algorithm 5 under that guess, with the same per-agent-phase batched
    sampling as :func:`fast_uniform`.
    """
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    if move_budget < 1:
        raise InvalidParameterError(f"move_budget must be >= 1, got {move_budget}")
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)

    best: Optional[int] = None
    best_finder: Optional[int] = None
    iterations_executed = 0
    rounds_executed = 0
    for agent_id in range(n_agents):
        limit = move_budget if best is None else min(move_budget, best)
        total, iterations, rounds = _simulate_doubly_uniform_agent(
            ell, K, target, rng, limit, max_epoch
        )
        iterations_executed += iterations
        rounds_executed += rounds
        if total is not None and (best is None or total < best):
            best = total
            best_finder = agent_id

    stats = FastRunStats(iterations_executed, rounds_executed)
    if best is None:
        return _not_found(n_agents, move_budget, stats)
    return SearchOutcome(
        found=True,
        m_moves=best,
        m_steps=None,
        finder=best_finder,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=stats,
    )


def _simulate_doubly_uniform_agent(
    ell: int,
    K: int,
    target: Point,
    rng: np.random.Generator,
    move_limit: int,
    max_epoch: int,
) -> Tuple[Optional[int], int, int]:
    """One doubly uniform agent's ``(moves_at_first_find, iterations, rounds)``."""
    cumulative = 0
    iterations = 0
    rounds = 0
    for epoch in range(1, max_epoch + 1):
        guessed_n = 2**epoch
        for phase in range(1, epoch + 1):
            if cumulative >= move_limit:
                return None, iterations, rounds
            rounds += 1
            rho_i = 2.0 ** (phase_coin_exponent(phase, guessed_n, ell, K) * ell)
            calls = int(rng.geometric(1.0 / rho_i)) - 1
            stop_p = 2.0 ** -(phase * ell)
            while calls > 0 and cumulative < move_limit:
                batch = min(calls, _SORTIE_CHUNK)
                calls -= batch
                iterations += batch
                pv, lv, ph, lh = _sample_sorties(rng, stop_p, batch)
                hits = _sortie_hits(target, pv, lv, ph, lh)
                lengths = lv + lh
                if hits is not None:
                    hit, moves_at_hit = hits
                    first = int(hit.argmax())
                    moves_before = int(lengths[:first].sum())
                    total = cumulative + moves_before + int(moves_at_hit[first])
                    return (
                        (total if total <= move_limit else None), iterations, rounds
                    )
                cumulative += int(lengths.sum())
    return None, iterations, rounds


def fast_random_walk(
    n_agents: int,
    target: Point,
    rng: np.random.Generator,
    move_budget: int,
    chunk: int = 2048,
) -> SearchOutcome:
    """Colony ``M_moves`` for independent uniform random walks.

    Every step is a move, so all agents' move counts advance in
    lockstep and the first find in simulated time is the exact colony
    minimum — the simulation stops there.
    """
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if move_budget < 1:
        raise InvalidParameterError(f"move_budget must be >= 1, got {move_budget}")
    if target == (0, 0):
        return _found_at_origin(n_agents, move_budget)

    steps_vectors = np.array([(0, 1), (0, -1), (-1, 0), (1, 0)], dtype=np.int64)
    positions = np.zeros((n_agents, 2), dtype=np.int64)
    moves_done = 0
    rounds_executed = 0
    x, y = target
    while moves_done < move_budget:
        block = min(chunk, move_budget - moves_done)
        rounds_executed += 1
        choices = rng.integers(0, 4, size=(n_agents, block))
        displacements = steps_vectors[choices]
        trajectory = positions[:, None, :] + np.cumsum(displacements, axis=1)
        hits = (trajectory[:, :, 0] == x) & (trajectory[:, :, 1] == y)
        if np.any(hits):
            step_of_hit = np.where(hits.any(axis=1), hits.argmax(axis=1), block)
            winner = int(np.argmin(step_of_hit))
            m_moves = moves_done + int(step_of_hit[winner]) + 1
            return SearchOutcome(
                found=True,
                m_moves=m_moves,
                m_steps=None,
                finder=winner,
                n_agents=n_agents,
                move_budget=move_budget,
                stats=FastRunStats(n_agents * m_moves, rounds_executed),
            )
        positions = trajectory[:, -1, :]
        moves_done += block
    return _not_found(
        n_agents, move_budget, FastRunStats(n_agents * moves_done, rounds_executed)
    )


def _found_at_origin(n_agents: int, move_budget: int) -> SearchOutcome:
    return SearchOutcome(
        found=True,
        m_moves=0,
        m_steps=0,
        finder=0,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=FastRunStats(0, 0),
    )


def _not_found(
    n_agents: int, move_budget: int, stats: Optional[FastRunStats] = None
) -> SearchOutcome:
    return SearchOutcome(
        found=False,
        m_moves=None,
        m_steps=None,
        finder=None,
        n_agents=n_agents,
        move_budget=move_budget,
        stats=stats,
    )
