"""Probabilistic finite automata: the paper's formal agent model.

Section 2 models each agent as a tuple ``(S, s0, delta)`` — a finite
state set, a start state, and a map from states to distributions over
states — together with a labeling function ``M: S -> Action``.  This
module implements that object directly: a row-stochastic transition
matrix plus a label per state.

The automaton form serves three purposes:

* mechanical ``chi`` accounting (state count -> bits, smallest positive
  transition probability -> ``l``);
* the Markov-chain analysis of Section 4 (via :meth:`Automaton.to_markov_chain`);
* an execution form, :meth:`Automaton.step`: the one sampling rule,
  which the equivalence tests compare against the pseudocode-style
  generator processes and :mod:`repro.lowerbound.colony` runs in blocks.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.actions import Action
from repro.core.base import SearchAlgorithm
from repro.core.selection import SelectionComplexity
from repro.errors import InvalidParameterError

_PROBABILITY_ATOL = 1e-12


class Automaton:
    """An agent automaton ``(S, s0, delta)`` with labeling ``M``.

    Parameters
    ----------
    transitions:
        Row-stochastic ``(|S|, |S|)`` matrix; entry ``[i, j]`` is the
        probability of stepping from state ``i`` to state ``j``.
    labels:
        One :class:`Action` per state (the labeling function ``M``).
    start:
        Index of ``s0``.  The model requires ``M(s0) = ORIGIN``; this is
        validated.
    name:
        Optional human-readable identifier.
    """

    def __init__(
        self,
        transitions: np.ndarray,
        labels: Sequence[Action],
        start: int = 0,
        name: str = "automaton",
    ) -> None:
        matrix = np.asarray(transitions, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError(
                f"transition matrix must be square, got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        if len(labels) != n:
            raise InvalidParameterError(
                f"need one label per state: {n} states, {len(labels)} labels"
            )
        if not 0 <= start < n:
            raise InvalidParameterError(f"start state {start} out of range 0..{n - 1}")
        if np.any(matrix < -_PROBABILITY_ATOL):
            raise InvalidParameterError("transition probabilities must be non-negative")
        row_sums = matrix.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > 1e-9)
        if bad.size:
            raise InvalidParameterError(
                f"rows must sum to 1; rows {bad.tolist()} sum to "
                f"{row_sums[bad].tolist()}"
            )
        if labels[start] is not Action.ORIGIN:
            raise InvalidParameterError(
                f"the model requires M(s0) = ORIGIN, got {labels[start]}"
            )
        self._matrix = np.clip(matrix, 0.0, 1.0)
        self._labels: List[Action] = list(labels)
        self._start = start
        self._name = name
        # Row-wise running sums: step() moves to the number of the row's
        # sums at or below one uniform (the inverse CDF), so it never
        # takes a zero-probability transition, not even at u = 0.0.
        self._cumulative = np.cumsum(self._matrix, axis=1)
        self._cumulative[:, -1] = 1.0

    @property
    def name(self) -> str:
        """Human-readable identifier."""
        return self._name

    @property
    def n_states(self) -> int:
        """``|S|``."""
        return self._matrix.shape[0]

    @property
    def start(self) -> int:
        """Index of the start state ``s0``."""
        return self._start

    @property
    def labels(self) -> List[Action]:
        """The labeling function as a list indexed by state."""
        return list(self._labels)

    @property
    def matrix(self) -> np.ndarray:
        """A defensive copy of the transition matrix."""
        return self._matrix.copy()

    def label(self, state: int) -> Action:
        """``M(state)``."""
        return self._labels[state]

    def min_positive_probability(self) -> float:
        """The smallest non-zero transition probability (defines ``l``)."""
        positive = self._matrix[self._matrix > 0.0]
        if positive.size == 0:
            raise InvalidParameterError("automaton has no transitions")
        return float(positive.min())

    def selection_complexity(self) -> SelectionComplexity:
        """Mechanical ``chi`` accounting per Section 2."""
        return SelectionComplexity.of_automaton(self)

    def step(self, rng: np.random.Generator, state: int) -> int:
        """Sample the successor of ``state``."""
        u = rng.random()
        return int(np.searchsorted(self._cumulative[state], u, side="right"))

    def transition_thresholds(self) -> np.ndarray:
        """The distinct running-sum thresholds :meth:`step` compares a
        uniform against, in increasing order.

        Each row's last threshold is 1.0, which no uniform in ``[0, 1)``
        reaches, so it is left out.
        """
        return np.unique(self._cumulative[:, :-1])

    def successor_table(self) -> np.ndarray:
        """:meth:`step` as a lookup on a uniform's threshold count.

        Entry ``[s, c]`` of the ``(|S|, len(thresholds) + 1)`` table is
        the successor of state ``s`` for a uniform ``u`` with exactly
        ``c`` of :meth:`transition_thresholds` at or below it, that is
        ``thresholds[c - 1] <= u < thresholds[c]``.  Every entry of row
        ``s`` is one of those thresholds, so the count of row ``s``'s
        entries at or below ``u`` — the state :meth:`step` returns — is
        the count strictly below ``thresholds[c]`` (below infinity when
        ``c`` is the last column): the lookup is exact.
        """
        bounds = np.append(self.transition_thresholds(), np.inf)
        below = self._cumulative[:, None, :-1] < bounds[None, :, None]
        return below.sum(axis=2).astype(np.int64)

    def to_markov_chain(self):
        """The underlying Markov chain ``(S, P)`` used by Section 4.

        Imported lazily so :mod:`repro.markov` stays independent of the
        core package.
        """
        from repro.markov.chain import MarkovChain

        state_names = [
            f"s{i}:{label.value}" for i, label in enumerate(self._labels)
        ]
        return MarkovChain(self._matrix, start=self._start, state_names=state_names)

    def move_vectors(self) -> np.ndarray:
        """Per-state displacement vectors as an ``(|S|, 2)`` int array.

        ``ORIGIN`` and ``NONE`` rows are zero; the engine applies the
        ORIGIN teleport separately.
        """
        from repro.core.actions import ACTION_VECTORS

        return np.array(
            [ACTION_VECTORS[label] for label in self._labels], dtype=np.int64
        )

    def origin_state_mask(self) -> np.ndarray:
        """Boolean mask of states labeled ORIGIN (teleport states)."""
        return np.array(
            [label is Action.ORIGIN for label in self._labels], dtype=bool
        )

    def memory_bits(self) -> int:
        """``b = ceil(log2 |S|)``."""
        return math.ceil(math.log2(self.n_states)) if self.n_states > 1 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Automaton(name={self._name!r}, n_states={self.n_states})"


class AutomatonAlgorithm(SearchAlgorithm):
    """Adapter running an explicit automaton as a search algorithm.

    The process form simply walks the automaton and yields each visited
    state's label; the faithful engine then applies moves/teleports.
    The start state itself emits no action (the execution semantics
    start *at* ``s0`` with the agent already at the origin).
    """

    def __init__(self, automaton: Automaton) -> None:
        self._automaton = automaton

    @property
    def name(self) -> str:
        return self._automaton.name

    def process(self, rng: np.random.Generator) -> Iterator[Action]:
        automaton = self._automaton
        state = automaton.start
        while True:
            state = automaton.step(rng, state)
            yield automaton.label(state)

    def selection_complexity(self) -> SelectionComplexity:
        return self._automaton.selection_complexity()

    def automaton(self) -> Optional[Automaton]:
        return self._automaton
