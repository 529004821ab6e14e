"""Baseline search algorithms the paper compares against.

* :class:`~repro.baselines.random_walk.RandomWalkSearch` — uniform
  random walks; speed-up capped at ``min{log n, D}`` (Alon et al.,
  cited as [3] in the paper), the canonical *below-threshold* behaviour.
* :class:`~repro.baselines.spiral.SpiralSearch` — the deterministic
  square spiral: optimal for a single agent, but not a finite-state
  machine (it needs ``Theta(log r)`` bits at radius ``r``).
* :class:`~repro.baselines.feinerman.FeinermanSearch` — the
  Feinerman-Korman-Lotker-Sereni style scale-doubling search the paper
  cites as [12]: optimal ``O(D^2/n + D)`` but ``chi = Theta(log D)``,
  the *high-selection-complexity* comparator.
* :class:`~repro.baselines.levy.LevyWalk` — power-law flight lengths, a
  standard biological-foraging comparator (extension beyond the paper).
"""

from repro.baselines.feinerman import FeinermanSearch
from repro.baselines.levy import LevyWalk
from repro.baselines.random_walk import RandomWalkSearch
from repro.baselines.spiral import (
    SpiralSearch,
    spiral_index,
    spiral_point,
    spiral_points,
)

__all__ = [
    "FeinermanSearch",
    "LevyWalk",
    "RandomWalkSearch",
    "SpiralSearch",
    "spiral_index",
    "spiral_point",
    "spiral_points",
]
