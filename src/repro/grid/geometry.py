"""Geometric primitives for the planar search model (paper, Section 2).

The model measures target distance in the max-norm (Chebyshev norm),
which the paper notes is a constant-factor approximation of grid hop
distance.  Agents move in the four cardinal directions.

The workhorse of this module is the closed-form *L-path* family of
functions.  One iteration of the paper's Algorithm 1 (and one call of
Algorithm 4's ``search``) walks a vertical leg followed by a horizontal
leg — an "L" shape anchored at the origin.  Testing whether such a
sortie visits a given target, and after how many moves, has a closed
form; the vectorized kernels in :mod:`repro.sim.kernels` are built
on exactly these predicates, and the property tests check them against
brute-force enumeration of the path.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Tuple

Point = Tuple[int, int]
"""A grid coordinate.  Plain tuples keep the hot paths allocation-light."""

ORIGIN: Point = (0, 0)


class Direction(Enum):
    """The four grid directions an agent can move in.

    The enum values are the unit vectors applied to an agent's position,
    matching the execution semantics in the paper's model section
    (``up`` increments ``y``, ``right`` increments ``x``, ...).
    """

    UP = (0, 1)
    DOWN = (0, -1)
    LEFT = (-1, 0)
    RIGHT = (1, 0)

    @property
    def vector(self) -> Point:
        """The ``(dx, dy)`` unit vector of this direction."""
        return self.value

    @property
    def opposite(self) -> "Direction":
        """The direction pointing the other way."""
        return _OPPOSITES[self]

    @property
    def is_vertical(self) -> bool:
        """True for UP/DOWN, False for LEFT/RIGHT."""
        return self.value[0] == 0

    def step(self, point: Point) -> Point:
        """Return ``point`` advanced one unit in this direction."""
        dx, dy = self.value
        return (point[0] + dx, point[1] + dy)


_OPPOSITES = {
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
    Direction.LEFT: Direction.RIGHT,
    Direction.RIGHT: Direction.LEFT,
}


def chebyshev(a: Point, b: Point) -> int:
    """Max-norm (Chebyshev) distance between two points.

    This is the distance notion used throughout the paper ("distance
    measured in terms of the max-norm", Section 2).
    """
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def chebyshev_norm(p: Point) -> int:
    """Max-norm distance of ``p`` from the origin."""
    return max(abs(p[0]), abs(p[1]))


def manhattan(a: Point, b: Point) -> int:
    """L1 (hop) distance between two points: the true grid path length."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def manhattan_norm(p: Point) -> int:
    """L1 distance of ``p`` from the origin."""
    return abs(p[0]) + abs(p[1])


def l_path_points(
    vertical_sign: int, vertical_len: int, horizontal_sign: int, horizontal_len: int
) -> Iterator[Point]:
    """Yield every point visited by an L-shaped sortie from the origin.

    The sortie walks ``vertical_len`` moves with vertical sign
    ``vertical_sign`` (+1 = up, -1 = down), then ``horizontal_len``
    moves with horizontal sign ``horizontal_sign`` (+1 = right,
    -1 = left).  The origin itself is yielded first; the corner point is
    yielded once (not duplicated between the legs).

    This is the reference enumeration the closed-form predicates below
    are property-tested against.
    """
    _check_sign(vertical_sign)
    _check_sign(horizontal_sign)
    if vertical_len < 0 or horizontal_len < 0:
        raise ValueError("leg lengths must be non-negative")
    for j in range(vertical_len + 1):
        yield (0, vertical_sign * j)
    corner_y = vertical_sign * vertical_len
    for i in range(1, horizontal_len + 1):
        yield (horizontal_sign * i, corner_y)


def l_path_hits(
    target: Point,
    vertical_sign: int,
    vertical_len: int,
    horizontal_sign: int,
    horizontal_len: int,
) -> bool:
    """Closed-form test: does the L-shaped sortie visit ``target``?

    Equivalent to ``target in l_path_points(...)`` but O(1).  The target
    is on the vertical leg iff it sits on the y-axis, on the chosen side,
    within the leg's reach; it is on the horizontal leg iff it sits at
    the corner's height, on the chosen side, within reach.
    """
    x, y = target
    on_vertical = x == 0 and y * vertical_sign >= 0 and abs(y) <= vertical_len
    corner_y = vertical_sign * vertical_len
    on_horizontal = (
        y == corner_y and x * horizontal_sign >= 0 and abs(x) <= horizontal_len
    )
    return on_vertical or on_horizontal


def l_path_hit_moves(
    target: Point,
    vertical_sign: int,
    vertical_len: int,
    horizontal_sign: int,
    horizontal_len: int,
) -> int | None:
    """Number of moves at which the sortie first reaches ``target``.

    Returns ``None`` when the sortie misses the target.  The move count
    is the paper's ``M_moves`` contribution of the final, successful
    iteration (Lemma 3.3 bounds it by ``2D``): ``|y|`` moves if the
    target lies on the vertical leg, else ``vertical_len + |x|``.
    """
    x, y = target
    if x == 0 and y * vertical_sign >= 0 and abs(y) <= vertical_len:
        return abs(y)
    corner_y = vertical_sign * vertical_len
    if y == corner_y and x * horizontal_sign >= 0 and abs(x) <= horizontal_len:
        return vertical_len + abs(x)
    return None


def square_lattice(radius: int) -> Iterator[Point]:
    """Yield all grid points of the square ``[-radius, radius]^2``.

    There are ``(2*radius + 1)**2`` of them — the ``Theta(D^2)`` points
    the lower bound argues cannot all be covered by low-chi agents.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    for y in range(-radius, radius + 1):
        for x in range(-radius, radius + 1):
            yield (x, y)


def square_boundary_points(radius: int) -> Iterator[Point]:
    """Yield the points at exact max-norm distance ``radius`` from the origin.

    Used by the ring target placement (a target at *exactly* distance
    ``D``, the hardest distance for a given ``D`` bound).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        yield (0, 0)
        return
    for x in range(-radius, radius + 1):
        yield (x, radius)
        yield (x, -radius)
    for y in range(-radius + 1, radius):
        yield (radius, y)
        yield (-radius, y)


def _check_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
