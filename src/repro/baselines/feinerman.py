"""Feinerman et al. style harmonic search — the high-chi comparator.

The paper's reference [12] (Feinerman, Korman, Lotker, Sereni,
"Collaborative Search on the Plane without Communication", PODC 2012)
achieves optimal ``O(D^2/n + D)`` expected moves when agents know
``n``: each agent repeats stages ``i = 1, 2, ...`` — pick a uniformly
random cell within the ``2^i``-square, walk to it, spiral-search a
quota of ``Theta(4^i / n + 2^i)`` cells around it, return to the
origin.

Its selection complexity is the paper's motivating contrast: storing a
random coordinate up to scale ``D`` takes ``Theta(log D)`` bits and
drawing it uniformly uses probabilities as fine as ``1/(2D+1)``, so
``chi = Theta(log D)`` — exponentially above the ``log log D``
threshold the reproduced paper shows suffices.

No public implementation of [12] exists; this is a faithful
reimplementation of the stage structure with explicit chi accounting
(see DESIGN.md, substitutions table).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.baselines.spiral import spiral_moves
from repro.core.actions import ACTION_FOR_DIRECTION, Action
from repro.core.base import SearchAlgorithm
from repro.core.selection import MemoryMeter, SelectionComplexity
from repro.errors import InvalidParameterError
from repro.grid.geometry import Direction, Point


def stage_radius(stage: int) -> int:
    """The stage's scale ``D_i = 2^i``."""
    if stage < 1:
        raise InvalidParameterError(f"stage must be >= 1, got {stage}")
    return 2**stage


def stage_quota(stage: int, n_agents: int, c: float = 4.0) -> int:
    """Spiral quota ``t_i = ceil(c * (4^i / n + 2^i))``.

    Large enough that ``n`` agents' quotas jointly cover the
    ``2^i``-square with constant-factor slack.
    """
    if n_agents < 1:
        raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
    if c <= 0:
        raise InvalidParameterError(f"c must be positive, got {c}")
    radius = stage_radius(stage)
    return math.ceil(c * (radius * radius / n_agents + radius))


def _staircase_to(cell: Point) -> Iterator[Action]:
    """Unit moves from the origin to ``cell``: x-leg then y-leg."""
    x, y = cell
    horizontal = Direction.RIGHT if x >= 0 else Direction.LEFT
    vertical = Direction.UP if y >= 0 else Direction.DOWN
    for _ in range(abs(x)):
        yield ACTION_FOR_DIRECTION[horizontal]
    for _ in range(abs(y)):
        yield ACTION_FOR_DIRECTION[vertical]


class FeinermanSearch(SearchAlgorithm):
    """Scale-doubling + uniform-jump + spiral-quota search (knows ``n``)."""

    def __init__(self, n_agents: int, c: float = 4.0, max_stage: int = 40) -> None:
        if n_agents < 1:
            raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
        if max_stage < 1:
            raise InvalidParameterError(f"max_stage must be >= 1, got {max_stage}")
        self._n_agents = n_agents
        self._c = c
        self._max_stage = max_stage

    @property
    def n_agents(self) -> int:
        """The known colony size ``n``."""
        return self._n_agents

    def process(self, rng: np.random.Generator) -> Iterator[Action]:
        stage = 0
        while True:
            stage += 1
            if stage > self._max_stage:
                while True:
                    yield Action.NONE
            radius = stage_radius(stage)
            center = (
                int(rng.integers(-radius, radius + 1)),
                int(rng.integers(-radius, radius + 1)),
            )
            yield from _staircase_to(center)
            quota = stage_quota(stage, self._n_agents, self._c)
            moves = spiral_moves()
            for _ in range(quota):
                yield next(moves)
            yield Action.ORIGIN

    def selection_complexity_for_distance(self, distance: int) -> SelectionComplexity:
        """The ``Theta(log D)`` accounting that motivates the paper.

        Reaching targets at distance ``D`` requires stages up to
        ``ceil(log2 D) + 1``: two coordinate registers of
        ``Theta(log D)`` bits, a spiral step counter of
        ``Theta(log(D^2/n))`` bits, and coordinate draws as fine as
        ``1/(2 * 2^i + 1)`` — i.e. ``l = Theta(log D)``.
        """
        if distance < 2:
            raise InvalidParameterError(f"distance must be >= 2, got {distance}")
        last_stage = math.ceil(math.log2(distance)) + 1
        radius = stage_radius(last_stage)
        quota = stage_quota(last_stage, self._n_agents, self._c)
        meter = (
            MemoryMeter()
            .declare("stage_counter", last_stage)
            .declare("center_x", 2 * radius + 1)
            .declare("center_y", 2 * radius + 1)
            .declare("spiral_counter", quota)
            .declare("control", 4)
        )
        ell = max(1.0, math.log2(2 * radius + 1))
        return SelectionComplexity(bits=meter.bits, ell=ell)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FeinermanSearch(n_agents={self._n_agents}, c={self._c})"
