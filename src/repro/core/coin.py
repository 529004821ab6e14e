"""Algorithm 2: composing coarse coins into fine ones.

The paper's ``coin(k, l)`` flips a base coin ``C_{1/2^l}`` (tails with
probability ``1/2^l``) exactly ``k`` times and reports tails only if
every flip was tails — yielding tails probability exactly ``2^{-kl}``
while storing nothing but a ``ceil(log2 k)``-bit loop counter
(Lemma 3.6).  This is the trick that lets the search algorithms reach
probability ``1/D`` using only probability ``1/2^l`` events, making the
"memory can buy probability fineness" half of the chi trade-off
concrete.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.selection import MemoryMeter, SelectionComplexity
from repro.errors import InvalidParameterError


def flip_base_coin(rng: np.random.Generator, ell: int) -> bool:
    """One flip of the base coin ``C_{1/2^l}``; True means tails.

    This is the only random primitive the paper's agents possess (plus
    the fair coin, which is ``ell = 1``).
    """
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    return bool(rng.random() < 2.0**-ell)


class CompositeCoin:
    """``coin(k, l)``: tails with probability exactly ``2^{-k l}``.

    Parameters
    ----------
    k:
        Number of base-coin flips per composite flip (the loop bound of
        Algorithm 2).  Must be >= 1.
    ell:
        Fineness of the base coin: tails probability ``1/2^l``.

    Notes
    -----
    :meth:`flip` performs the faithful ``k``-flip loop (so its step cost
    matches the paper's accounting); :meth:`flip_fast` draws from the
    same Bernoulli distribution in one shot.  A statistical test asserts
    the two agree.
    """

    def __init__(self, k: int, ell: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if ell < 1:
            raise InvalidParameterError(f"ell must be >= 1, got {ell}")
        self._k = k
        self._ell = ell

    @property
    def k(self) -> int:
        """The number of base flips per composite flip."""
        return self._k

    @property
    def ell(self) -> int:
        """The base coin's fineness ``l``."""
        return self._ell

    @property
    def tails_probability(self) -> float:
        """Exactly ``2^{-k l}`` (Lemma 3.6)."""
        return 2.0 ** -(self._k * self._ell)

    @property
    def memory_bits(self) -> int:
        """The loop counter's ``ceil(log2 k)`` bits (Lemma 3.6)."""
        return math.ceil(math.log2(self._k)) if self._k > 1 else 0

    def memory_meter(self) -> MemoryMeter:
        """Declared-register layout: a single counter over ``k`` values."""
        return MemoryMeter().declare("coin_loop_counter", self._k)

    def selection_complexity(self) -> SelectionComplexity:
        """``chi`` contribution of the coin subroutine alone."""
        return SelectionComplexity(bits=self.memory_bits, ell=float(self._ell))

    def flip(self, rng: np.random.Generator) -> bool:
        """Faithful Algorithm 2: loop ``k`` base flips; True means tails.

        Returns heads (False) as soon as any base flip shows heads,
        exactly as the pseudocode's early ``return heads`` does.
        """
        for _ in range(self._k):
            if not flip_base_coin(rng, self._ell):
                return False
        return True

    def flip_fast(self, rng: np.random.Generator) -> bool:
        """Distribution-equivalent single-draw flip; True means tails."""
        return bool(rng.random() < self.tails_probability)

    def geometric_heads_run(self, rng: np.random.Generator) -> int:
        """Number of consecutive heads before the first tails.

        Distributed ``Geometric(p) - 1`` with ``p = 2^{-kl}``: exactly
        the length distribution of the walks in Algorithms 1 and 3.
        Sampled in one draw; the batched kernels draw these lengths in
        bulk by inverse CDF.
        """
        return int(rng.geometric(self.tails_probability)) - 1

    @classmethod
    def for_target_probability(cls, ell: int, target_exponent: int) -> "CompositeCoin":
        """Build the coin with tails probability ``2^{-target_exponent}``.

        Uses ``k = ceil(target_exponent / ell)`` base flips, so the
        realized probability is ``2^{-k l} <= 2^{-target_exponent}``
        (the paper's choice ``k = ceil(log D / l)`` for probability
        ``~1/D``).
        """
        if target_exponent < 1:
            raise InvalidParameterError(
                f"target_exponent must be >= 1, got {target_exponent}"
            )
        k = max(1, math.ceil(target_exponent / ell))
        return cls(k, ell)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositeCoin(k={self._k}, ell={self._ell}, p=2^-{self._k * self._ell})"
