"""Algorithm 4: ``search(k, l)`` — one L-shaped sortie from the origin.

A fair coin picks up or down, Algorithm 3 walks that way; a fair coin
picks left or right, Algorithm 3 walks that way.  Lemma 3.9: when
called at the origin, every grid point of the ``2^{kl}``-square is
visited with probability at least ``2^{-(kl+6)}``, using
``ceil(log2 k) + 2`` bits.

The closed-form visit probability implemented here is exact (not just
the lemma's lower bound), which the experiments compare measurements
against; the lemma's bound is then checked as a corollary.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.actions import Action
from repro.core.walk import walk_process, walk_memory_bits
from repro.errors import InvalidParameterError
from repro.grid.geometry import Direction, Point


def search_process(
    rng: np.random.Generator,
    k: int,
    ell: int,
    *,
    emit_internal: bool = False,
) -> Iterator[Action]:
    """One faithful ``search(k, l)`` sortie (finite generator of actions).

    The caller is responsible for being at the origin (the engine
    enforces this for the composed algorithms) and for issuing the
    return afterwards, exactly as in the paper's Algorithm 5.
    """
    vertical = Direction.UP if rng.random() < 0.5 else Direction.DOWN
    yield from walk_process(rng, k, ell, vertical, emit_internal=emit_internal)
    horizontal = Direction.LEFT if rng.random() < 0.5 else Direction.RIGHT
    yield from walk_process(rng, k, ell, horizontal, emit_internal=emit_internal)


def visit_probability(k: int, ell: int, target: Point) -> float:
    """Exact probability that one sortie visits ``target``.

    With ``p = 2^{-kl}`` and target ``(x, y)``:

    * ``(0, 0)``: probability 1 (the sortie starts there);
    * ``x = 0, y != 0``: the vertical sign must match (1/2) and the
      vertical walk must reach ``|y|``: ``(1/2)(1-p)^{|y|}``;
    * ``y = 0, x != 0``: the vertical walk must halt immediately (``p``,
      any sign), the horizontal sign must match and reach ``|x|``:
      ``p * (1/2)(1-p)^{|x|}``;
    * otherwise: vertical sign matches and the walk stops *exactly* at
      ``|y|`` (``(1/2)(1-p)^{|y|} p``), horizontal sign matches and
      reaches ``|x|``: ``(1/4) p (1-p)^{|x|+|y|}``.
    """
    p = 2.0 ** -(k * ell)
    x, y = target
    if x == 0 and y == 0:
        return 1.0
    if x == 0:
        return 0.5 * (1.0 - p) ** abs(y)
    if y == 0:
        return 0.5 * p * (1.0 - p) ** abs(x)
    return 0.25 * p * (1.0 - p) ** (abs(x) + abs(y))


def visit_probability_lower_bound(k: int, ell: int) -> float:
    """Lemma 3.9's uniform lower bound ``2^{-(kl+6)}`` over the square.

    Valid for every target in ``[-2^{kl}, 2^{kl}]^2``; the proof
    combines a ``1/2^{kl+2}`` exact-stop bound with two ``1/2`` sign
    choices and a ``1/4`` reach bound.
    """
    return 2.0 ** -(k * ell + 6)


def search_memory_bits(k: int) -> int:
    """Lemma 3.9's memory claim: coin counter plus 2 direction bits."""
    return walk_memory_bits(k) + 2


def expected_sortie_moves(k: int, ell: int) -> float:
    """Expected moves of one sortie: two legs of mean ``1/p - 1`` each."""
    p = 2.0 ** -(k * ell)
    return 2.0 * (1.0 / p - 1.0)


def check_square_parameters(k: int, ell: int) -> None:
    """Validate the ``(k, l)`` pair shared by Algorithms 2-5."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    if k * ell > 60:
        raise InvalidParameterError(
            f"2^(k*l) = 2^{k * ell} overflows the simulator's integer range"
        )


def square_side(k: int, ell: int) -> int:
    """The side parameter ``2^{kl}`` of the square Lemma 3.9 covers."""
    check_square_parameters(k, ell)
    return 2 ** (k * ell)


def chi_of_search(k: int, ell: int) -> float:
    """``chi`` of a standalone sortie machine: ``(log k + 2) + log2 l``."""
    bits = search_memory_bits(k)
    return bits + math.log2(max(1, ell))
