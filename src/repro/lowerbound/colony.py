"""Vectorized simulation of an automaton colony (the lower-bound workload).

Runs ``n`` independent copies of an arbitrary agent automaton for a
fixed number of synchronous rounds, tracking:

* the set of distinct cells visited inside the ``[-D, D]^2`` window (a
  dense boolean array — the coverage quantity of Theorem 4.1);
* per-agent move counts and the colony ``M_moves`` / ``M_steps`` for an
  optional target.

The rounds run in blocks, in ``_blocked_chain``, which
:func:`~repro.lowerbound.drift.measure_max_deviation` runs on too.  One
``rng.random((block, n))`` call draws a block's uniforms; its C-order
fill gives the same doubles as ``block * n`` calls of ``random()``, and
the last block is sized to the rounds that remain, so a run leaves the
generator where a round-by-round run would (callers draw from it
afterwards).  Each uniform is reduced to the number of the automaton's
transition thresholds at or below it, and
:meth:`~repro.core.automaton.Automaton.successor_table` maps a state
and that count to the successor ``step`` draws, ties included, so only
the state recurrence runs round by round.  Positions (cumulative sums
that restart after ORIGIN teleports), move counts, window coverage and
the first find are computed over the whole block.  The result is
bit-identical to calling ``step`` for every agent, round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.automaton import Automaton
from repro.errors import InvalidParameterError
from repro.grid.geometry import Point

# Cap on the uniforms one block draws (rounds x agents); a colony with
# more agents than this runs one round per block.
_BLOCK_VALUES = 1 << 15


@dataclass
class ColonyResult:
    """Outcome of a fixed-horizon colony run."""

    n_agents: int
    rounds: int
    window_radius: int
    visited: np.ndarray
    found: bool
    m_moves: Optional[int]
    m_steps: Optional[int]
    finder: Optional[int]

    @property
    def coverage_fraction(self) -> float:
        """Visited fraction of the ``(2D+1)^2`` window."""
        return float(self.visited.sum()) / self.visited.size

    def visited_count(self) -> int:
        """Number of distinct window cells visited."""
        return int(self.visited.sum())


def simulate_colony(
    automaton: Automaton,
    n_agents: int,
    rounds: int,
    rng: np.random.Generator,
    *,
    window_radius: int,
    target: Optional[Point] = None,
) -> ColonyResult:
    """Run the colony for ``rounds`` synchronous rounds.

    The run does not stop at the first find — the lower-bound
    experiments measure coverage over the whole horizon — but it does
    record the first find's ``M_moves``/``M_steps`` when a target is
    given: ``m_moves`` is the least move count at which any agent moves
    onto the target, its finder the agent that did so in the earliest
    round (then the lowest index), and ``m_steps`` the round of the
    first hit.  An agent's later hits never count: getting back onto
    the target takes more moves.
    """
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    if window_radius < 1:
        raise InvalidParameterError(
            f"window_radius must be >= 1, got {window_radius}"
        )

    side = 2 * window_radius + 1
    visited = np.zeros((side, side), dtype=bool)
    visited[window_radius, window_radius] = True  # everyone starts at origin
    visited_cells = visited.reshape(-1)

    is_move_by_state = (automaton.move_vectors() != 0).any(axis=1)
    moves = np.zeros(n_agents, dtype=np.int64)
    best_moves: Optional[int] = None
    best_steps: Optional[int] = None
    finder: Optional[int] = None

    starts = np.full(n_agents, automaton.start, dtype=np.int64)
    chain = _blocked_chain(automaton, starts, rounds, rng)
    for done, states, block_xs, block_ys in chain:
        inside = np.abs(block_xs) <= window_radius
        inside &= np.abs(block_ys) <= window_radius
        cells = block_xs + window_radius
        cells *= side
        cells += block_ys
        cells += window_radius
        visited_cells[cells[inside]] = True

        if target is not None:
            is_move = is_move_by_state.take(states)
            hits = block_xs == target[0]
            hits &= block_ys == target[1]
            hits &= is_move
            if hits.any():
                hit_ids = np.flatnonzero(hits.any(axis=0))
                hit_rounds = hits[:, hit_ids].argmax(axis=0)
                hit_moves = moves[hit_ids] + np.cumsum(
                    is_move[:, hit_ids], axis=0
                )[hit_rounds, np.arange(hit_ids.size)]
                # Least moves, then earliest round, then lowest index.
                first = np.lexsort((hit_ids, hit_rounds, hit_moves))[0]
                if best_moves is None or hit_moves[first] < best_moves:
                    best_moves = int(hit_moves[first])
                    finder = int(hit_ids[first])
                if best_steps is None:
                    best_steps = done + int(hit_rounds.min()) + 1
            moves += is_move.sum(axis=0)

    return ColonyResult(
        n_agents=n_agents,
        rounds=rounds,
        window_radius=window_radius,
        visited=visited,
        found=best_moves is not None,
        m_moves=best_moves,
        m_steps=best_steps,
        finder=finder,
    )


def _blocked_chain(
    automaton: Automaton,
    starts: np.ndarray,
    rounds: int,
    rng: np.random.Generator,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Run one agent per entry of ``starts`` for ``rounds`` rounds.

    Yields ``(done, states, xs, ys)`` per block: the rounds before it,
    then the ``(block, n)`` states and positions after each of its
    rounds.  Positions start at the origin and restart after ORIGIN.
    """
    n_agents = starts.size
    move_vectors = automaton.move_vectors()
    dx_by_state = move_vectors[:, 0]
    dy_by_state = move_vectors[:, 1]
    origin_mask_by_state = automaton.origin_state_mask()
    # A round is one add and one lookup: an agent's state travels
    # scaled by the number of threshold codes, so state * n_codes + code
    # indexes the successor table directly.
    thresholds = automaton.transition_thresholds()
    n_codes = thresholds.size + 1
    successors = (automaton.successor_table() * n_codes).ravel()
    successor_list = successors.tolist()

    scaled_states = starts * n_codes
    xs = np.zeros(n_agents, dtype=np.int64)
    ys = np.zeros(n_agents, dtype=np.int64)
    max_block = max(1, _BLOCK_VALUES // n_agents)
    done = 0
    while done < rounds:
        block = min(max_block, rounds - done)
        u = rng.random((block, n_agents))
        # A uniform's code is the number of thresholds at or below it,
        # the count ``step`` takes over a row of running sums.
        codes = np.zeros((block, n_agents), dtype=np.int64)
        for threshold in thresholds:
            codes += u >= threshold
        if n_agents == 1:
            # One agent: a recurrence on Python ints beats a NumPy call
            # per round by an order of magnitude.
            state = int(scaled_states[0])
            path = []
            for code in codes.ravel().tolist():
                state = successor_list[state + code]
                path.append(state)
            scaled_block = np.array(path, dtype=np.int64)[:, None]
            scaled_states = scaled_block[-1]
        else:
            scaled_block = np.empty((block, n_agents), dtype=np.int64)
            for code_row, out in zip(codes, scaled_block):
                code_row += scaled_states
                scaled_states = successors.take(code_row, out=out, mode="clip")
        states = scaled_block // n_codes

        # Positions: running sums of the displacements, restarted at
        # zero after an agent's latest ORIGIN teleport in the block.
        steps_x = np.cumsum(dx_by_state.take(states), axis=0)
        steps_y = np.cumsum(dy_by_state.take(states), axis=0)
        block_xs = steps_x + xs
        block_ys = steps_y + ys
        teleported = origin_mask_by_state.take(states)
        if teleported.any():
            columns = np.flatnonzero(teleported.any(axis=0))
            latest = np.where(
                teleported[:, columns], np.arange(block)[:, None], -1
            )
            np.maximum.accumulate(latest, axis=0, out=latest)
            restarted = latest >= 0
            # Where no teleport has happened yet ``latest`` is -1, and
            # the row it gathers is discarded by the ``where``.
            picks = (latest, np.arange(columns.size))
            for steps, positions in ((steps_x, block_xs), (steps_y, block_ys)):
                own = steps[:, columns]
                positions[:, columns] = np.where(
                    restarted, own - own[picks], positions[:, columns]
                )
        yield done, states, block_xs, block_ys
        xs = block_xs[-1]
        ys = block_ys[-1]
        done += block
