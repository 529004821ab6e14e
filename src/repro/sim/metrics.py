"""Result records and the paper's performance metrics.

The paper measures ``M_moves`` — the minimum over all agents of the
number of *moves* (steps labeled up/down/left/right) an agent performs
until it finds the target — and the analogous ``M_steps`` over Markov
chain steps.  Speed-up compares the one-agent and ``n``-agent values of
the same metric.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.grid.geometry import Point


@dataclass(frozen=True)
class FastRunStats:
    """Diagnostics accumulated by a vectorized simulation run.

    ``iterations_executed`` counts sampled algorithm iterations
    (sorties, walk steps, or Feinerman stages — the unit each simulator
    advances by); ``rounds_executed`` counts the simulator's outer
    vectorized passes.  The batched backend attaches each colony's own
    record to its outcome.
    """

    iterations_executed: int
    rounds_executed: int


@dataclass(frozen=True)
class AgentOutcome:
    """Per-agent accounting at the end of a run.

    ``moves_at_find``/``steps_at_find`` are ``None`` when the agent did
    not reach the target before the engine stopped it (budget reached,
    or it could no longer improve the colony minimum).
    """

    agent_id: int
    found: bool
    moves_at_find: Optional[int]
    steps_at_find: Optional[int]
    total_moves: int
    total_steps: int
    final_position: Point

    def __post_init__(self) -> None:
        if self.found and self.moves_at_find is None:
            raise InvalidParameterError("found agents must report moves_at_find")


@dataclass(frozen=True)
class SearchOutcome:
    """Colony-level result of one simulated search.

    Attributes
    ----------
    found:
        Whether any agent reached the target within budget.
    m_moves:
        The paper's ``M_moves``: minimum over agents of the per-agent
        move count at its own first find (``None`` if not found).
    m_steps:
        The analogous minimum over Markov-chain steps, when the
        simulator tracks steps (the batched kernels report ``None``).
    finder:
        Id of an agent achieving the minimum.
    n_agents:
        Colony size.
    move_budget:
        The per-agent move budget the run was allowed.
    per_agent:
        Optional per-agent details (faithful engine only).
    stats:
        Optional vectorized-run diagnostics (batched backend only).
    """

    found: bool
    m_moves: Optional[int]
    m_steps: Optional[int]
    finder: Optional[int]
    n_agents: int
    move_budget: Optional[int]
    per_agent: List[AgentOutcome] = field(default_factory=list)
    stats: Optional[FastRunStats] = None

    def __post_init__(self) -> None:
        if self.found and self.m_moves is None:
            raise InvalidParameterError("found outcomes must report m_moves")
        if not self.found and self.m_moves is not None:
            raise InvalidParameterError("not-found outcomes must not report m_moves")

    @property
    def moves_or_budget(self) -> int:
        """``m_moves`` when found, else the exhausted budget.

        A right-censored estimate convenient for averaging in sweeps
        where the budget is chosen far above the expected value, so the
        censoring bias is negligible (and conservative: it understates
        slow algorithms' cost).
        """
        if self.found:
            assert self.m_moves is not None
            return self.m_moves
        if self.move_budget is None:
            raise InvalidParameterError(
                "outcome has neither a find nor a budget to report"
            )
        return self.move_budget


#: The value an outcome column holds where the record has ``None``.
ABSENT = -1

#: Byte layout of every outcome column, on disk and on the wire.
COLUMN_DTYPE = "<i8"

#: The fields of one per-agent record, in the order of the ``per_agent``
#: column (``n_trials * n_agents`` records; ``None`` stored as
#: :data:`ABSENT`, ``found`` as 0/1, ``final_position`` as ``x, y``).
AGENT_FIELDS = (
    "agent_id", "found", "moves_at_find", "steps_at_find",
    "total_moves", "total_steps", "x", "y",
)


class OutcomeBatch:
    """The outcomes of a run of trials, one int64 column per field.

    The struct-of-arrays form of a sequence of :class:`SearchOutcome`
    records, and the one outcome representation from the kernels to the
    wire.  Every batch carries four columns, one value per trial:

    ``m_moves``
        ``M_moves``, or :data:`ABSENT` when the trial did not find the
        target (so it also encodes ``found``);
    ``finder``
        the id of an agent achieving the minimum, or :data:`ABSENT`;
    ``iterations`` / ``rounds``
        the trial's :class:`FastRunStats`, both :data:`ABSENT` when the
        trial has no stats.

    Two more appear only where a backend tracks them (the reference
    engine): ``m_steps`` (``M_steps`` or :data:`ABSENT`; without the
    column it is 0 for a find at the origin and ``None`` otherwise) and
    ``per_agent`` (:data:`AGENT_FIELDS` per agent, shape
    ``(n_trials, n_agents, 8)``).  ``n_agents`` and ``move_budget`` are
    shared by every trial.

    A batch behaves like the tuple of records it replaces: ``len``,
    indexing (an integer gives a :class:`SearchOutcome` built on demand,
    a slice gives a batch), iteration, ``==`` against another batch or a
    tuple of records, and pickling.  Only the columns are compared and
    pickled, so a batch that has been iterated pickles to the same bytes
    as a fresh one.  Columns are read-only.
    """

    __slots__ = (
        "n_agents", "move_budget", "m_moves", "finder", "iterations",
        "rounds", "m_steps", "per_agent",
    )

    #: Columns every batch carries, in serialization order.
    REQUIRED_COLUMNS = ("m_moves", "finder", "iterations", "rounds")
    #: Columns present only where a backend tracks them.
    OPTIONAL_COLUMNS = ("m_steps", "per_agent")

    def __init__(
        self,
        n_agents: int,
        move_budget: Optional[int],
        m_moves,
        finder,
        iterations,
        rounds,
        m_steps=None,
        per_agent=None,
    ) -> None:
        self.n_agents = _count(n_agents, "n_agents", minimum=1)
        self.move_budget = (
            None if move_budget is None else _count(move_budget, "move_budget")
        )
        self.m_moves = _column(m_moves, "m_moves")
        n_trials = self.m_moves.shape[0]
        self.finder = _column(finder, "finder", n_trials)
        self.iterations = _column(iterations, "iterations", n_trials)
        self.rounds = _column(rounds, "rounds", n_trials)
        self.m_steps = None if m_steps is None else _column(m_steps, "m_steps", n_trials)
        self.per_agent = None
        if per_agent is not None:
            records = _column(per_agent, "per_agent")
            expected = n_trials * self.n_agents * len(AGENT_FIELDS)
            if records.size != expected:
                raise InvalidParameterError(
                    f"per_agent holds {records.size} values, expected {expected}"
                )
            self.per_agent = records.reshape(n_trials, self.n_agents, len(AGENT_FIELDS))
        self._validate()
        # One canonical form: an m_steps column that says no more than
        # the rule for batches without one is dropped.
        if self.m_steps is not None and np.array_equal(self.m_steps, self._derived_m_steps()):
            self.m_steps = None

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, n_agents: int, move_budget: Optional[int]) -> "OutcomeBatch":
        """A batch of zero trials."""
        none = np.zeros(0, dtype=np.int64)
        return cls(n_agents, move_budget, none, none, none, none)

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[SearchOutcome]) -> "OutcomeBatch":
        """The batch holding exactly ``outcomes`` (a non-empty sequence
        sharing one ``n_agents`` and ``move_budget``)."""
        if not outcomes:
            raise InvalidParameterError(
                "from_outcomes needs at least one outcome (use OutcomeBatch.empty)"
            )
        n_agents = outcomes[0].n_agents
        move_budget = outcomes[0].move_budget
        for outcome in outcomes:
            if outcome.n_agents != n_agents or outcome.move_budget != move_budget:
                raise InvalidParameterError(
                    "outcomes of one batch must share n_agents and move_budget"
                )
        with_agents = [bool(outcome.per_agent) for outcome in outcomes]
        if any(with_agents) and not all(with_agents):
            raise InvalidParameterError(
                "either every outcome of a batch has per_agent records or none has"
            )
        return cls(
            n_agents,
            move_budget,
            [_encode(outcome.m_moves) for outcome in outcomes],
            [_encode(outcome.finder) for outcome in outcomes],
            [_encode(None if o.stats is None else o.stats.iterations_executed) for o in outcomes],
            [_encode(None if o.stats is None else o.stats.rounds_executed) for o in outcomes],
            m_steps=[_encode(outcome.m_steps) for outcome in outcomes],
            per_agent=(
                [_agent_record(agent) for o in outcomes for agent in o.per_agent]
                if all(with_agents) else None
            ),
        )

    @classmethod
    def from_columns(
        cls,
        n_trials: int,
        n_agents: int,
        move_budget: Optional[int],
        columns: Mapping[str, np.ndarray],
    ) -> "OutcomeBatch":
        """Rebuild a batch from its :meth:`columns` (the decoders' path).

        Raises :class:`~repro.errors.InvalidParameterError` for a missing
        or unknown column, or one whose length does not fit ``n_trials``.
        """
        n_trials = _count(n_trials, "n_trials")
        unknown = set(columns) - set(cls.REQUIRED_COLUMNS) - set(cls.OPTIONAL_COLUMNS)
        if unknown:
            raise InvalidParameterError(f"unknown outcome column(s): {', '.join(sorted(unknown))}")
        for name in cls.REQUIRED_COLUMNS:
            if name not in columns:
                raise InvalidParameterError(f"missing outcome column {name!r}")
        # The constructor fits every other column to m_moves.
        if np.size(columns["m_moves"]) != n_trials:
            raise InvalidParameterError(
                f"column 'm_moves' holds {np.size(columns['m_moves'])} values, "
                f"expected {n_trials}"
            )
        return cls(
            n_agents,
            move_budget,
            columns["m_moves"],
            columns["finder"],
            columns["iterations"],
            columns["rounds"],
            m_steps=columns.get("m_steps"),
            per_agent=columns.get("per_agent"),
        )

    @classmethod
    def concat(cls, batches: Sequence["OutcomeBatch"]) -> "OutcomeBatch":
        """The trials of ``batches`` in order, joined with one concatenate
        per column (a single batch is returned as it is)."""
        if not batches:
            raise InvalidParameterError("concat needs at least one batch")
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        for batch in batches:
            if batch.n_agents != first.n_agents or batch.move_budget != first.move_budget:
                raise InvalidParameterError(
                    "batches joined into one must share n_agents and move_budget"
                )
        with_agents = [batch.per_agent is not None for batch in batches if len(batch)]
        if any(with_agents) and not all(with_agents):
            raise InvalidParameterError(
                "either every joined batch has per_agent records or none has"
            )

        def joined(name: str):
            return np.concatenate([getattr(batch, name) for batch in batches])

        steps = None
        if any(batch.m_steps is not None for batch in batches):
            steps = np.concatenate([batch.m_steps_column() for batch in batches])
        agents = None
        if with_agents and all(with_agents):
            agents = np.concatenate(
                [batch.per_agent for batch in batches if len(batch)]
            )
        return cls(
            first.n_agents, first.move_budget, joined("m_moves"),
            joined("finder"), joined("iterations"), joined("rounds"),
            m_steps=steps, per_agent=agents,
        )

    # -- columns -----------------------------------------------------------

    @property
    def n_trials(self) -> int:
        return int(self.m_moves.shape[0])

    @property
    def found(self) -> np.ndarray:
        """Per-trial ``found`` flags (bool)."""
        return self.m_moves != ABSENT

    def moves_or_budget(self) -> np.ndarray:
        """Per-trial censored move counts: ``m_moves``, or the budget for
        trials that did not find (the column form of
        :attr:`SearchOutcome.moves_or_budget`)."""
        found = self.found
        if self.move_budget is None:
            if not found.all():
                raise InvalidParameterError(
                    "outcome has neither a find nor a budget to report"
                )
            return self.m_moves.copy()
        return np.where(found, self.m_moves, np.int64(self.move_budget))

    def m_steps_column(self) -> np.ndarray:
        """``m_steps`` per trial, :data:`ABSENT` for ``None``."""
        return self._derived_m_steps() if self.m_steps is None else self.m_steps

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column the batch carries, 1-D, in serialization order."""
        columns = {name: getattr(self, name) for name in self.REQUIRED_COLUMNS}
        if self.m_steps is not None:
            columns["m_steps"] = self.m_steps
        if self.per_agent is not None:
            columns["per_agent"] = self.per_agent.reshape(-1)
        return columns

    # -- the tuple protocol ------------------------------------------------

    def __len__(self) -> int:
        return self.n_trials

    def __getitem__(self, index):
        if isinstance(index, slice):
            return OutcomeBatch(
                self.n_agents, self.move_budget, self.m_moves[index],
                self.finder[index], self.iterations[index], self.rounds[index],
                m_steps=None if self.m_steps is None else self.m_steps[index],
                per_agent=None if self.per_agent is None else self.per_agent[index],
            )
        position = operator.index(index)
        if position < 0:
            position += self.n_trials
        if not 0 <= position < self.n_trials:
            raise IndexError(f"trial index {index} out of range for {self.n_trials} trials")
        return self._outcome(
            int(self.m_moves[position]),
            int(self.finder[position]),
            int(self.iterations[position]),
            int(self.rounds[position]),
            None if self.m_steps is None else int(self.m_steps[position]),
            None if self.per_agent is None else self.per_agent[position].tolist(),
        )

    def __iter__(self) -> Iterator[SearchOutcome]:
        steps = self.m_steps.tolist() if self.m_steps is not None else None
        agents = self.per_agent.tolist() if self.per_agent is not None else None
        for index, (moves, finder, iterations, rounds) in enumerate(zip(
            self.m_moves.tolist(), self.finder.tolist(),
            self.iterations.tolist(), self.rounds.tolist(),
        )):
            yield self._outcome(
                moves, finder, iterations, rounds,
                None if steps is None else steps[index],
                None if agents is None else agents[index],
            )

    def __eq__(self, other):
        if isinstance(other, OutcomeBatch):
            if (self.n_agents, self.move_budget) != (other.n_agents, other.move_budget):
                return False
            mine, theirs = self.columns(), other.columns()
            return mine.keys() == theirs.keys() and all(
                np.array_equal(mine[name], theirs[name]) for name in mine
            )
        if isinstance(other, tuple):
            return len(self) == len(other) and all(
                outcome == record for outcome, record in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (
            _restore_batch,
            (
                self.n_trials, self.n_agents, self.move_budget,
                tuple((name, column_bytes(values)) for name, values in self.columns().items()),
            ),
        )

    def __repr__(self) -> str:
        return (
            f"OutcomeBatch(n_trials={self.n_trials}, n_agents={self.n_agents}, "
            f"move_budget={self.move_budget}, found={int(self.found.sum())})"
        )

    # -- internals ---------------------------------------------------------

    def _derived_m_steps(self) -> np.ndarray:
        return np.where(self.m_moves == 0, np.int64(0), np.int64(ABSENT))

    def _validate(self) -> None:
        def check(ok, message: str) -> None:
            if not bool(np.all(ok)):
                raise InvalidParameterError(message)

        check(self.m_moves >= ABSENT, "m_moves values must be >= 0 (or -1 for not found)")
        check(
            (self.finder >= ABSENT) & (self.finder < self.n_agents),
            f"finder values must lie in [0, {self.n_agents}) (or -1 for none)",
        )
        check(self.iterations >= ABSENT, "iterations values must be >= 0 (or -1 for no stats)")
        check(self.rounds >= ABSENT, "rounds values must be >= 0 (or -1 for no stats)")
        check(
            (self.iterations == ABSENT) == (self.rounds == ABSENT),
            "iterations and rounds must be absent together",
        )
        if self.m_steps is not None:
            check(self.m_steps >= ABSENT, "m_steps values must be >= 0 (or -1 for none)")
        if self.per_agent is not None:
            agent_id, found, moves, steps, total_moves, total_steps = (
                self.per_agent[..., index] for index in range(6)
            )
            check(agent_id >= 0, "per_agent agent_id values must be >= 0")
            check((found == 0) | (found == 1), "per_agent found values must be 0 or 1")
            check((moves >= ABSENT) & (steps >= ABSENT), "per_agent find counts must be >= -1")
            check((found == 0) | (moves >= 0), "found agents must report moves_at_find")
            check((total_moves >= 0) & (total_steps >= 0), "per_agent totals must be >= 0")

    def _outcome(self, moves, finder, iterations, rounds, steps, agents) -> SearchOutcome:
        """One record from Python ints (a column row)."""
        if steps is None:
            steps = 0 if moves == 0 else ABSENT
        return SearchOutcome(
            found=moves != ABSENT,
            m_moves=_decode(moves),
            m_steps=_decode(steps),
            finder=_decode(finder),
            n_agents=self.n_agents,
            move_budget=self.move_budget,
            per_agent=(
                [] if agents is None else [
                    AgentOutcome(
                        agent_id=record[0],
                        found=bool(record[1]),
                        moves_at_find=_decode(record[2]),
                        steps_at_find=_decode(record[3]),
                        total_moves=record[4],
                        total_steps=record[5],
                        final_position=(record[6], record[7]),
                    )
                    for record in agents
                ]
            ),
            stats=None if iterations == ABSENT else FastRunStats(iterations, rounds),
        )


def column_bytes(values: np.ndarray) -> bytes:
    """A column's raw bytes in :data:`COLUMN_DTYPE`."""
    return values.astype(COLUMN_DTYPE, copy=False).tobytes()


def column_from_bytes(data: bytes, dtype: str = COLUMN_DTYPE) -> np.ndarray:
    """The column stored in ``data`` (read-only, no copy).

    Raises :class:`~repro.errors.InvalidParameterError` for a dtype tag
    other than :data:`COLUMN_DTYPE` or a length that is not a whole
    number of values.
    """
    if dtype != COLUMN_DTYPE:
        raise InvalidParameterError(
            f"unsupported column dtype {dtype!r} (expected {COLUMN_DTYPE!r})"
        )
    if len(data) % 8:
        raise InvalidParameterError(f"column of {len(data)} bytes is not whole int64 values")
    return np.frombuffer(data, dtype=COLUMN_DTYPE)


def _restore_batch(n_trials, n_agents, move_budget, columns) -> OutcomeBatch:
    return OutcomeBatch.from_columns(
        n_trials, n_agents, move_budget,
        {name: column_from_bytes(data) for name, data in columns},
    )


def _column(values, name: str, length: Optional[int] = None) -> np.ndarray:
    """``values`` as a read-only, contiguous 1-D int64 array."""
    try:
        array = np.asarray(values)
        if array.dtype != np.int64:
            if array.size and array.dtype.kind not in "iu":
                raise TypeError(f"dtype {array.dtype}")
            array = array.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as error:
        raise InvalidParameterError(f"column {name!r} must hold integers: {error}") from None
    array = np.ascontiguousarray(array.reshape(-1) if name == "per_agent" else array)
    if array.ndim != 1:
        raise InvalidParameterError(f"column {name!r} must be one-dimensional")
    if length is not None and array.shape[0] != length:
        raise InvalidParameterError(
            f"column {name!r} holds {array.shape[0]} values, expected {length}"
        )
    if array.flags.writeable:
        if array is values or array.base is not None:
            array = array.copy()  # never freeze or alias the caller's array
        array.flags.writeable = False
    return array


def _count(value, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _encode(value: Optional[int]) -> int:
    return ABSENT if value is None else int(value)


def _decode(value: int) -> Optional[int]:
    return None if value == ABSENT else value


def _agent_record(agent: AgentOutcome) -> Tuple[int, ...]:
    return (
        int(agent.agent_id),
        int(bool(agent.found)),
        _encode(agent.moves_at_find),
        _encode(agent.steps_at_find),
        int(agent.total_moves),
        int(agent.total_steps),
        int(agent.final_position[0]),
        int(agent.final_position[1]),
    )


def speedup(single_agent_moves: float, colony_moves: float) -> float:
    """Speed-up of a colony over one agent: ``E_1[M] / E_n[M]``.

    The paper's performance question is how this grows with ``n``
    (optimal: ``min{n, D}``; below the chi threshold: ``min{n, D^{o(1)}}``).
    """
    if single_agent_moves <= 0 or colony_moves <= 0:
        raise InvalidParameterError("move counts must be positive")
    return single_agent_moves / colony_moves
