"""Finite Markov chains with dense transition matrices.

The state counts in this paper are tiny by design — the lower bound
concerns automata with ``2^b`` states for ``b = o(log log D)`` — so a
dense ``(n, n)`` float matrix is the right representation: validation,
powers, and restriction to classes are all simple array operations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError

_ROW_SUM_ATOL = 1e-9


class MarkovChain:
    """A time-homogeneous finite Markov chain ``(S, P)``.

    Parameters
    ----------
    matrix:
        Row-stochastic transition matrix.
    start:
        The initial state (the automaton's ``s0``).
    state_names:
        Optional display names, index-aligned with the matrix.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        start: int = 0,
        state_names: Optional[Sequence[str]] = None,
    ) -> None:
        array = np.asarray(matrix, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidParameterError(
                f"transition matrix must be square, got shape {array.shape}"
            )
        n = array.shape[0]
        if n == 0:
            raise InvalidParameterError("chain must have at least one state")
        if np.any(array < 0):
            raise InvalidParameterError("transition probabilities must be non-negative")
        row_sums = array.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > _ROW_SUM_ATOL)
        if bad.size:
            raise InvalidParameterError(
                f"rows must sum to 1; rows {bad.tolist()} sum to {row_sums[bad].tolist()}"
            )
        if not 0 <= start < n:
            raise InvalidParameterError(f"start state {start} out of range 0..{n - 1}")
        if state_names is not None and len(state_names) != n:
            raise InvalidParameterError(
                f"need {n} state names, got {len(state_names)}"
            )
        self._matrix = array
        self._start = start
        self._names = list(state_names) if state_names is not None else [
            f"s{i}" for i in range(n)
        ]

    @property
    def n_states(self) -> int:
        """``|S|``."""
        return self._matrix.shape[0]

    @property
    def start(self) -> int:
        """The initial state index."""
        return self._start

    @property
    def matrix(self) -> np.ndarray:
        """A defensive copy of ``P``."""
        return self._matrix.copy()

    @property
    def state_names(self) -> List[str]:
        """Display names, index-aligned."""
        return list(self._names)

    def probability(self, source: int, destination: int) -> float:
        """``P[source, destination]``."""
        return float(self._matrix[source, destination])

    def successors(self, state: int) -> np.ndarray:
        """Indices reachable from ``state`` in one step (positive prob)."""
        return np.flatnonzero(self._matrix[state] > 0.0)

    def min_positive_probability(self) -> float:
        """The chain's ``p0``: smallest non-zero transition probability.

        The lower bound assumes ``p0 >= 1/2^l``; the Doeblin coefficient
        of Lemma A.2 is ``p0^{|S|}``.
        """
        positive = self._matrix[self._matrix > 0.0]
        if positive.size == 0:
            raise InvalidParameterError("chain has no transitions")
        return float(positive.min())

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix of the transition digraph."""
        return self._matrix > 0.0

    def power(self, exponent: int) -> np.ndarray:
        """``P^k`` via repeated squaring."""
        if exponent < 0:
            raise InvalidParameterError(f"exponent must be >= 0, got {exponent}")
        return np.linalg.matrix_power(self._matrix, exponent)

    def distribution_after(
        self, steps: int, initial: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The state distribution after ``steps`` transitions.

        ``initial`` defaults to the point mass on the start state.
        """
        if initial is None:
            distribution = np.zeros(self.n_states)
            distribution[self._start] = 1.0
        else:
            distribution = np.asarray(initial, dtype=float).copy()
            if distribution.shape != (self.n_states,):
                raise InvalidParameterError(
                    f"initial distribution must have shape ({self.n_states},)"
                )
            if abs(distribution.sum() - 1.0) > 1e-9 or np.any(distribution < 0):
                raise InvalidParameterError("initial must be a probability vector")
        for _ in range(steps):
            distribution = distribution @ self._matrix
        return distribution

    def restricted_to(self, states: Sequence[int]) -> "MarkovChain":
        """The chain induced on a *closed* subset of states.

        Raises if the subset leaks probability (is not closed), because
        the induced object would not be a Markov chain; recurrent
        classes are closed by definition.
        """
        indices = np.asarray(sorted(set(int(s) for s in states)), dtype=np.int64)
        if indices.size == 0:
            raise InvalidParameterError("state subset must be non-empty")
        sub = self._matrix[np.ix_(indices, indices)]
        row_sums = sub.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_ATOL):
            raise InvalidParameterError(
                "subset is not closed under the transition function"
            )
        names = [self._names[i] for i in indices]
        return MarkovChain(sub, start=0, state_names=names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MarkovChain(n_states={self.n_states}, start={self._start})"
