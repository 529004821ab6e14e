"""Per-class drift vectors and trajectory concentration (Corollary 4.10).

Once an agent settles in a recurrent class ``C``, its long-run fraction
of up-moves converges to the occupation probability of up-labeled
states — and likewise for the other directions.  The agent's position
after ``r`` in-class rounds therefore concentrates around the straight
line ``r * p_vec(C)`` with

``p_vec(C) = (pi_C(right) - pi_C(left), pi_C(up) - pi_C(down))``

where ``pi_C`` is the class's occupation distribution.  This module
computes those drift lines exactly and measures simulated deviations
from them, with one agent on the blocked chain ``simulate_colony``
runs on (:mod:`repro.lowerbound.colony`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np

from repro.core.actions import Action
from repro.core.automaton import Automaton
from repro.errors import InvalidParameterError
from repro.lowerbound.colony import _blocked_chain
from repro.markov.classify import absorbing_probability_classes, classify_states
from repro.markov.stationary import occupation_distribution


@dataclass(frozen=True)
class DriftLine:
    """One recurrent class's predicted straight-line behaviour.

    Attributes
    ----------
    states:
        The recurrent class.
    drift:
        Expected per-round displacement ``(dx, dy)`` under the class's
        occupation distribution.
    absorption_probability:
        Probability that an agent started at ``s0`` is absorbed into
        this class.
    has_origin_state:
        Whether the class contains an ORIGIN-labeled state — if so the
        agent keeps returning and stays within ``D^{o(1)}`` of the
        origin (Corollary 4.5 case (1)) instead of following a line.
    moves_per_round:
        Expected fraction of rounds that are grid moves (occupation mass
        on move-labeled states); zero identifies the all-``none``
        stalling classes of Corollary 4.11 case (2).
    """

    states: FrozenSet[int]
    drift: Tuple[float, float]
    absorption_probability: float
    has_origin_state: bool
    moves_per_round: float

    @property
    def speed(self) -> float:
        """Euclidean norm of the drift vector."""
        return float(np.hypot(*self.drift))

    @property
    def is_stalling(self) -> bool:
        """True when the class makes (almost) no grid moves."""
        return self.moves_per_round <= 1e-12


def drift_profile(automaton: Automaton) -> List[DriftLine]:
    """All drift lines of an automaton, weighted by absorption probability.

    This is the complete Section 4 prediction for where the agent's
    trajectory can go: w.h.p. along one of these lines (within a
    sublinear tube), chosen with the listed probabilities.
    """
    chain = automaton.to_markov_chain()
    classification = classify_states(chain)
    absorption = absorbing_probability_classes(chain, classification)
    labels = automaton.labels
    lines: List[DriftLine] = []
    for members in classification.recurrent_classes:
        pi = occupation_distribution(chain, sorted(members))
        vectors = automaton.move_vectors().astype(float)
        drift = pi @ vectors
        move_mass = float(
            sum(pi[state] for state in members if labels[state].is_move)
        )
        lines.append(
            DriftLine(
                states=members,
                drift=(float(drift[0]), float(drift[1])),
                absorption_probability=float(absorption.get(members, 0.0)),
                has_origin_state=any(
                    labels[state] is Action.ORIGIN for state in members
                ),
                moves_per_round=move_mass,
            )
        )
    return lines


def measure_max_deviation(
    automaton: Automaton,
    rounds: int,
    rng: np.random.Generator,
    *,
    burn_in: int | None = None,
) -> Tuple[float, DriftLine]:
    """Simulate one agent and measure its max deviation from its drift line.

    Runs ``burn_in`` rounds first (defaults to ``4 * |S|^2``) so the
    agent is in its recurrent class, identifies that class, then tracks
    ``max_r ||X_r - r * p_vec||_inf`` over ``rounds`` further rounds —
    the quantity Corollary 4.10 bounds by ``o(D/|S|)`` when
    ``rounds ~ Delta``.  ORIGIN teleports reset the reference point, so
    machines that keep returning report deviation relative to the last
    return (matching Corollary 4.5's case split).

    The result and the generator state afterwards are those of calling
    :meth:`~repro.core.automaton.Automaton.step` once per round.
    """
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    chain = automaton.to_markov_chain()
    classification = classify_states(chain)
    if burn_in is None:
        burn_in = 4 * automaton.n_states * automaton.n_states

    state = automaton.start
    burn = _blocked_chain(automaton, np.array([state]), burn_in, rng)
    for _, states, _, _ in burn:
        state = int(states[-1, 0])

    target_class = classification.class_of(state)
    if target_class is None:
        # Extremely unlikely after the burn-in; step until absorbed.
        while target_class is None:
            state = automaton.step(rng, state)
            target_class = classification.class_of(state)

    lines = drift_profile(automaton)
    line = next(l for l in lines if l.states == target_class)

    drift_x, drift_y = line.drift
    origin_mask_by_state = automaton.origin_state_mask()
    max_deviation = 0.0
    reference_round = 0
    measured = _blocked_chain(automaton, np.array([state]), rounds, rng)
    for done, states, xs, ys in measured:
        # Rounds since the latest ORIGIN return (or since the start).
        round_index = np.arange(done + 1, done + states.shape[0] + 1)
        reference = np.where(
            origin_mask_by_state.take(states[:, 0]), round_index, reference_round
        )
        np.maximum.accumulate(reference, out=reference)
        elapsed = round_index - reference
        deviation = max(
            np.abs(xs[:, 0] - elapsed * drift_x).max(),
            np.abs(ys[:, 0] - elapsed * drift_y).max(),
        )
        max_deviation = max(max_deviation, float(deviation))
        reference_round = int(reference[-1])
    return max_deviation, line
