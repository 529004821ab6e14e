"""Algorithm 3: ``walk(k, l, dir)`` — a geometric-length directed walk.

The agent repeatedly flips ``coin(k, l)`` (Algorithm 2) and takes one
step in direction ``dir`` for every heads, stopping at the first tails.
The walk length is therefore ``Geometric(2^{-kl}) - 1``: roughly
uniform coverage of ``0..2^{kl}`` in the sense of Lemma 3.8 — every
length in that range has probability at least ``2^{-(kl+2)}``, at least
``2^{kl}`` steps happen with probability >= 1/4, and the expectation is
below ``2^{kl}``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.actions import ACTION_FOR_DIRECTION, Action
from repro.core.coin import CompositeCoin
from repro.errors import InvalidParameterError
from repro.grid.geometry import Direction


def walk_process(
    rng: np.random.Generator,
    k: int,
    ell: int,
    direction: Direction,
    *,
    emit_internal: bool = False,
) -> Iterator[Action]:
    """The faithful Algorithm 3 as a finite generator of actions.

    Yields one move action per heads of the composite coin and stops at
    the first tails.  When ``emit_internal`` is set, every base-coin
    flip additionally yields an ``Action.NONE`` step so that the step
    count (the paper's ``M_steps``) matches the product automaton; the
    default emits moves only, which is what ``M_moves`` measures.
    """
    coin = CompositeCoin(k, ell)
    move = ACTION_FOR_DIRECTION[direction]
    while True:
        if emit_internal:
            outcome = _flip_with_internal_steps(rng, coin)
            tails = yield from outcome
        else:
            tails = coin.flip(rng)
        if tails:
            return
        yield move


def _flip_with_internal_steps(rng: np.random.Generator, coin: CompositeCoin):
    """Composite flip that yields a NONE step per base flip.

    Implemented as a sub-generator returning the flip outcome via
    ``return`` (captured by ``yield from``).
    """
    from repro.core.coin import flip_base_coin

    for _ in range(coin.k):
        yield Action.NONE
        if not flip_base_coin(rng, coin.ell):
            return False
    return True


def sample_walk_length(rng: np.random.Generator, k: int, ell: int) -> int:
    """Distribution-exact walk length in one draw: ``Geometric(2^{-kl}) - 1``.

    One draw instead of flipping coins one by one; the batched kernels
    draw these lengths in bulk by inverse CDF.
    """
    return CompositeCoin(k, ell).geometric_heads_run(rng)


def walk_length_pmf(k: int, ell: int, length: int) -> float:
    """Exact probability that the walk takes exactly ``length`` moves.

    ``P[len = i] = (1 - p)^i * p`` with ``p = 2^{-kl}``.
    """
    if length < 0:
        raise InvalidParameterError(f"length must be non-negative, got {length}")
    p = 2.0 ** -(k * ell)
    return (1.0 - p) ** length * p


def walk_length_tail(k: int, ell: int, length: int) -> float:
    """Exact probability that the walk takes at least ``length`` moves.

    ``P[len >= i] = (1 - p)^i``; Lemma 3.8 lower-bounds the value at
    ``i = 2^{kl}`` by ``1/4``.
    """
    if length < 0:
        raise InvalidParameterError(f"length must be non-negative, got {length}")
    p = 2.0 ** -(k * ell)
    return (1.0 - p) ** length


def walk_memory_bits(k: int) -> int:
    """Memory of Algorithm 3: the coin counter, ``ceil(log2 k)`` bits."""
    return math.ceil(math.log2(k)) if k > 1 else 0
