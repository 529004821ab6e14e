"""The faithful synchronous multi-agent engine.

Runs ``n`` independent agent processes in synchronous rounds (one
Markov-chain step per agent per round, matching the round definition in
Section 2 of the paper) and computes the paper's metrics exactly:

* ``M_moves`` — minimum over agents of the per-agent move count at its
  own first arrival at the target;
* ``M_steps`` — the analogous minimum over steps.

Exactness of the minimum requires running non-finders past the first
find: an agent is only retired when it has found the target, exhausted
its budget, or accumulated at least as many moves as the best find so
far (at which point it can no longer improve the minimum).

This engine is deliberately unoptimized Python: it is the reference
implementation the vectorized kernels in :mod:`repro.sim.kernels` are
validated against, and the executor for arbitrary automata in the
lower-bound experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.actions import Action
from repro.core.base import SearchAlgorithm
from repro.errors import InvalidParameterError
from repro.grid.geometry import Point, manhattan_norm
from repro.grid.world import GridWorld
from repro.sim.metrics import AgentOutcome, SearchOutcome
from repro.sim.rng import spawn_generators
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class EngineConfig:
    """Engine policy knobs.

    Attributes
    ----------
    move_budget:
        Per-agent move budget; an agent exceeding it is retired unfound.
    step_budget:
        Per-agent step budget guarding against algorithms that spin on
        ``NONE``-labeled states without moving (e.g. automata whose
        recurrent class is all-``none``).  Defaults to
        ``64 * move_budget + 4096`` when ``None``.
    count_return_moves:
        Charge oracle returns at their true (Manhattan) path length.
        The paper's metric excludes them; enabling this reproduces the
        "at most a factor 2" claim empirically.
    check_return_path:
        Whether an agent can discover the target while walking the
        oracle's return path.  Off by default, matching the analysis
        (returns are ignored); when on, the engine walks the explicit
        Bresenham path and tests each cell.
    """

    move_budget: int
    step_budget: Optional[int] = None
    count_return_moves: bool = False
    check_return_path: bool = False

    def __post_init__(self) -> None:
        if self.move_budget < 1:
            raise InvalidParameterError(
                f"move_budget must be >= 1, got {self.move_budget}"
            )
        if self.step_budget is not None and self.step_budget < 1:
            raise InvalidParameterError(
                f"step_budget must be >= 1, got {self.step_budget}"
            )

    @property
    def effective_step_budget(self) -> int:
        """The step cap actually enforced."""
        if self.step_budget is not None:
            return self.step_budget
        return 64 * self.move_budget + 4096


class _AgentState:
    """Mutable per-agent bookkeeping (engine-internal)."""

    __slots__ = (
        "agent_id",
        "process",
        "position",
        "moves",
        "steps",
        "found",
        "moves_at_find",
        "steps_at_find",
        "alive",
    )

    def __init__(self, agent_id: int, process: Iterator[Action]) -> None:
        self.agent_id = agent_id
        self.process = process
        self.position: Point = (0, 0)
        self.moves = 0
        self.steps = 0
        self.found = False
        self.moves_at_find: Optional[int] = None
        self.steps_at_find: Optional[int] = None
        self.alive = True

    def outcome(self) -> AgentOutcome:
        return AgentOutcome(
            agent_id=self.agent_id,
            found=self.found,
            moves_at_find=self.moves_at_find,
            steps_at_find=self.steps_at_find,
            total_moves=self.moves,
            total_steps=self.steps,
            final_position=self.position,
        )


class SearchEngine:
    """Drives ``n`` agents of one algorithm against one world."""

    def __init__(self, config: EngineConfig) -> None:
        self._config = config

    @property
    def config(self) -> EngineConfig:
        """The engine's policy configuration."""
        return self._config

    def run(
        self,
        algorithm: SearchAlgorithm,
        n_agents: int,
        world: GridWorld,
        rng: int | np.random.SeedSequence | Sequence[np.random.Generator],
        trace: Optional[TraceRecorder] = None,
    ) -> SearchOutcome:
        """Simulate until the colony minimum is settled.

        ``rng`` may be a seed (fanned out to one stream per agent) or an
        explicit list of per-agent generators.
        """
        if n_agents < 1:
            raise InvalidParameterError(f"n_agents must be >= 1, got {n_agents}")
        generators = self._coerce_generators(rng, n_agents)
        agents = [
            _AgentState(agent_id, algorithm.process(generator))
            for agent_id, generator in enumerate(generators)
        ]
        if world.is_target((0, 0)):
            # Degenerate case the paper sets aside: the target is found
            # by everyone immediately, with zero moves.
            return self._all_found_at_origin(agents, world)

        best: Optional[int] = None
        config = self._config
        step_budget = config.effective_step_budget
        active = list(agents)
        while active:
            still_active: List[_AgentState] = []
            for agent in active:
                best = self._step_agent(agent, world, trace, best)
                if not agent.alive:
                    continue
                if agent.found:
                    agent.alive = False
                elif agent.moves >= config.move_budget or agent.steps >= step_budget:
                    agent.alive = False
                elif best is not None and agent.moves >= best:
                    agent.alive = False
                else:
                    still_active.append(agent)
            active = still_active

        return self._collect(agents, world)

    def _step_agent(
        self,
        agent: _AgentState,
        world: GridWorld,
        trace: Optional[TraceRecorder],
        best: Optional[int],
    ) -> Optional[int]:
        """Advance one agent by one step; returns the updated best find."""
        try:
            action = next(agent.process)
        except StopIteration:
            agent.alive = False
            return best
        agent.steps += 1
        if action.is_move:
            dx, dy = action.direction.vector
            agent.position = (agent.position[0] + dx, agent.position[1] + dy)
            agent.moves += 1
            world.record_visit(agent.position)
            if world.is_target(agent.position):
                best = self._register_find(agent, agent.moves, best)
        elif action is Action.ORIGIN:
            best = self._perform_return(agent, world, best)
        if trace is not None:
            trace.record(agent.agent_id, action, agent.position)
        return best

    def _perform_return(
        self, agent: _AgentState, world: GridWorld, best: Optional[int]
    ) -> Optional[int]:
        """Apply an oracle return: optional path check/cost, then teleport."""
        config = self._config
        if config.check_return_path and agent.position != (0, 0):
            from repro.grid.oracle import bresenham_return_path

            for moves_taken, cell in enumerate(
                bresenham_return_path(agent.position)[1:], start=1
            ):
                world.record_visit(cell)
                if world.is_target(cell):
                    charged = moves_taken if config.count_return_moves else 0
                    best = self._register_find(agent, agent.moves + charged, best)
                    break
        if config.count_return_moves:
            agent.moves += manhattan_norm(agent.position)
        agent.position = (0, 0)
        return best

    @staticmethod
    def _register_find(
        agent: _AgentState, moves_at_find: int, best: Optional[int]
    ) -> Optional[int]:
        if not agent.found:
            agent.found = True
            agent.moves_at_find = moves_at_find
            agent.steps_at_find = agent.steps
        if best is None or moves_at_find < best:
            return moves_at_find
        return best

    def _collect(self, agents: List[_AgentState], world: GridWorld) -> SearchOutcome:
        finders = [agent for agent in agents if agent.found]
        if finders:
            winner = min(finders, key=lambda agent: agent.moves_at_find)
            m_steps = min(
                agent.steps_at_find for agent in finders if agent.steps_at_find is not None
            )
            return SearchOutcome(
                found=True,
                m_moves=winner.moves_at_find,
                m_steps=m_steps,
                finder=winner.agent_id,
                n_agents=len(agents),
                move_budget=self._config.move_budget,
                per_agent=[agent.outcome() for agent in agents],
            )
        return SearchOutcome(
            found=False,
            m_moves=None,
            m_steps=None,
            finder=None,
            n_agents=len(agents),
            move_budget=self._config.move_budget,
            per_agent=[agent.outcome() for agent in agents],
        )

    def _all_found_at_origin(
        self, agents: List[_AgentState], world: GridWorld
    ) -> SearchOutcome:
        world.record_visit((0, 0))
        for agent in agents:
            agent.found = True
            agent.moves_at_find = 0
            agent.steps_at_find = 0
            agent.alive = False
        return SearchOutcome(
            found=True,
            m_moves=0,
            m_steps=0,
            finder=0,
            n_agents=len(agents),
            move_budget=self._config.move_budget,
            per_agent=[agent.outcome() for agent in agents],
        )

    @staticmethod
    def _coerce_generators(
        rng: int | np.random.SeedSequence | Sequence[np.random.Generator],
        n_agents: int,
    ) -> List[np.random.Generator]:
        if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
            return spawn_generators(rng, n_agents)
        generators = list(rng)
        if len(generators) != n_agents:
            raise InvalidParameterError(
                f"need {n_agents} generators, got {len(generators)}"
            )
        return generators
