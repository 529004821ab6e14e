"""Experiment sweeps: parameter grids, repetitions, tables.

The benchmark harness and EXPERIMENTS.md both consume this module: a
:class:`Sweep` runs a :class:`SimulationTrial` — a SimulationRequest
factory — over a parameter grid, aggregates each grid point into an
:class:`ExperimentRow`, and :func:`rows_to_markdown` renders the tables
recorded in EXPERIMENTS.md.

Each grid point becomes **one** backend call, submitted as a child job
of the process-wide :class:`~repro.sim.jobs.JobManager` (whole points —
not individual trials — run in parallel worker processes with
``workers=N``).  Each call also passes through the content-addressed
result cache, so repeated points and re-run sweeps simulate nothing.

:meth:`Sweep.submit` returns a :class:`SweepJob` handle streaming
:class:`ExperimentRow` objects as grid points complete
(:meth:`SweepJob.iter_rows`), reporting live point/trial progress
(:meth:`SweepJob.progress`), and supporting cancellation.  Because
every completed point lands in the result cache the moment it
finishes, a killed or cancelled sweep resumes from its completed
points on resubmission — zero re-simulation, proven by
:func:`repro.sim.jobs.backend_run_count`.

Trial ``t`` of point ``i`` always draws from ``derive_seed(seed,
*seed_keys, i, t)`` regardless of worker count — on the per-trial
``reference`` backend runs therefore reproduce the serial rows bit for
bit; on the ``batched`` backend a point's trials pool into one stream
anchored at trial 0's address and are equal in distribution instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import InvalidParameterError, JobCancelledError
from repro.sim.backends.base import SimulationRequest
from repro.sim.backends.registry import resolve_backend
from repro.sim.jobs import (
    TERMINAL_STATES,
    JobManager,
    JobState,
    SimulationJob,
    get_manager,
)
from repro.sim.metrics import SearchOutcome
from repro.sim.stats import Estimate, mean_ci

RequestFactory = Callable[[Mapping[str, object]], SimulationRequest]
OutcomeMetric = Callable[[SearchOutcome], float]


def censored_moves(outcome: SearchOutcome) -> float:
    """The default sweep metric: per-trial ``moves_or_budget``."""
    return float(outcome.moves_or_budget)


@dataclass(frozen=True)
class SimulationTrial:
    """Marks a sweep trial as *really a SimulationRequest factory*.

    ``factory(params)`` returns a request template for one grid point;
    the sweep owns the trial-batch fields and overwrites them —
    ``n_trials`` with the sweep's repetition count and ``seed`` /
    ``seed_keys`` with the sweep's addressing ``(seed, *seed_keys,
    point_index)`` — so the template's own values for those fields are
    irrelevant.  ``metric`` maps each trial's
    :class:`~repro.sim.metrics.SearchOutcome` to the measured float
    (the default, :func:`censored_moves`, is read off the outcome
    columns without building the records).

    ``backend`` defaults to ``"auto"``, which resolves to the vectorized
    ``batched`` backend for every algorithm it covers; name the
    per-trial ``reference`` backend for streams addressed trial by
    trial, bit-exact across worker counts.
    ``cache`` forwards to :func:`repro.sim.simulate` (``None`` =
    process default).
    """

    factory: RequestFactory
    metric: OutcomeMetric = censored_moves
    backend: str = "auto"
    cache: Optional[bool] = None


@dataclass(frozen=True)
class ExperimentRow:
    """One aggregated grid point: parameters plus measured estimates."""

    params: Dict[str, object]
    estimate: Estimate
    extras: Dict[str, float] = field(default_factory=dict)

    def value(self) -> float:
        """The point estimate (mean over trials)."""
        return self.estimate.mean


@dataclass(frozen=True)
class SweepProgress:
    """A snapshot of a submitted sweep's completion state."""

    state: JobState
    total_points: int
    done_points: int
    total_trials: int
    done_trials: int

    @property
    def fraction(self) -> float:
        """Completed trials as a fraction of the total."""
        if self.total_trials == 0:
            return 1.0
        return self.done_trials / self.total_trials


class SweepJob:
    """Handle for a submitted sweep.

    Created by :meth:`Sweep.submit`.  Each grid point runs as a child
    :class:`~repro.sim.jobs.SimulationJob` of the process-wide
    :class:`~repro.sim.jobs.JobManager` — at most ``workers`` points in
    flight, in worker processes when ``workers > 1`` and inline on the
    coordinator thread otherwise.  Rows stream in grid order through
    :meth:`iter_rows`; :meth:`progress` aggregates the children's
    trial-level progress; :meth:`cancel` stops the sweep while keeping
    every already-completed point in the result cache, so resubmitting
    the same sweep resumes instead of restarting.
    """

    def __init__(
        self,
        trial: "SimulationTrial",
        entries: List[Tuple[Dict[str, object], SimulationRequest]],
        trials: int,
        workers: int,
        manager: JobManager,
        progress_callback: Optional[Callable[["SweepProgress"], None]] = None,
    ) -> None:
        self._trial = trial
        self._entries = entries
        self._trials = trials
        self._workers = max(1, workers)
        self._manager = manager
        self._progress_callback = progress_callback
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._rows: List[Optional[ExperimentRow]] = [None] * len(entries)
        self._children: Dict[int, SimulationJob] = {}
        self._state = JobState.PENDING
        self._error: Optional[BaseException] = None
        self._cancel_event = threading.Event()
        self._thread = threading.Thread(
            target=self._drive, name="repro-sweep", daemon=True
        )
        self._thread.start()

    @property
    def state(self) -> JobState:
        """The sweep's current lifecycle state."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        """Whether the sweep reached a terminal state."""
        return self.state in TERMINAL_STATES

    def progress(self) -> SweepProgress:
        """Live point- and trial-level completion snapshot."""
        with self._lock:
            state = self._state
            done_points = sum(1 for row in self._rows if row is not None)
            children = dict(self._children)
        done_trials = sum(
            child.progress().done_trials for child in children.values()
        )
        return SweepProgress(
            state=state,
            total_points=len(self._entries),
            done_points=done_points,
            total_trials=len(self._entries) * self._trials,
            done_trials=done_trials,
        )

    def completed_rows(self) -> List[Tuple[int, ExperimentRow]]:
        """Non-blocking snapshot: the completed points, in grid order.

        The partial view a status poller wants while the sweep runs
        (the HTTP status route serves it); :meth:`result` is the
        blocking full set, :meth:`iter_rows` the streaming one.
        """
        with self._lock:
            return [
                (index, row)
                for index, row in enumerate(self._rows)
                if row is not None
            ]

    def iter_rows(self) -> Iterator[Tuple[int, ExperimentRow]]:
        """Yield ``(point_index, row)`` pairs incrementally, in grid order.

        Blocks until each point completes; raises the sweep's error if
        it fails, or :class:`~repro.errors.JobCancelledError` once the
        remaining points will never arrive after a cancellation.
        """
        for index in range(len(self._entries)):
            with self._condition:
                self._condition.wait_for(
                    lambda: self._rows[index] is not None
                    or self._state in TERMINAL_STATES
                )
                row = self._rows[index]
                if row is None:
                    if self._state is JobState.FAILED:
                        raise self._error
                    raise JobCancelledError(
                        f"sweep cancelled after {index} of "
                        f"{len(self._entries)} points"
                    )
            yield index, row

    def result(self, timeout: Optional[float] = None) -> List[ExperimentRow]:
        """Block until terminal; the aggregated rows in grid order."""
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._state in TERMINAL_STATES,
                timeout=timeout,
            ):
                raise TimeoutError(f"sweep still {self._state.value}")
            if self._state is JobState.FAILED:
                raise self._error
            if self._state is JobState.CANCELLED:
                done = sum(1 for row in self._rows if row is not None)
                raise JobCancelledError(
                    f"sweep cancelled after {done} of "
                    f"{len(self._entries)} points"
                )
            return [row for row in self._rows if row is not None]

    def cancel(self) -> bool:
        """Stop the sweep; completed points stay cached for resumption."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            children = dict(self._children)
        self._cancel_event.set()
        for child in children.values():
            child.cancel()
        return True

    def _drive(self) -> None:
        trial = self._trial
        use_pool = self._workers > 1 and len(self._entries) > 1
        try:
            with self._condition:
                self._state = JobState.RUNNING
                self._condition.notify_all()
            # Pooled points are bounded by the pool itself, so submit
            # them all upfront and let the executor queue keep every
            # worker saturated (no head-of-line blocking on the
            # in-order consumer below).  Inline points run on their
            # driver threads, so there the window must stay 1 to keep
            # execution serial.
            window = len(self._entries) if use_pool else 1
            submitted = 0
            for completed in range(len(self._entries)):
                if self._cancel_event.is_set():
                    raise JobCancelledError("sweep cancelled")
                while submitted < len(self._entries) and (
                    submitted < completed + window
                ):
                    _, request = self._entries[submitted]
                    child = self._manager.submit(
                        request,
                        backend=trial.backend,
                        workers=1,
                        cache=trial.cache,
                        run_in_pool=use_pool,
                        pool_size=self._workers,
                    )
                    with self._lock:
                        self._children[submitted] = child
                    submitted += 1
                params, _ = self._entries[completed]
                result = self._children[completed].result()
                if trial.metric is censored_moves:
                    # The default metric, read off the columns: the
                    # same floats in the same order as per record.
                    samples = result.moves_or_budget().astype(float)
                else:
                    samples = [trial.metric(o) for o in result.outcomes]
                row = ExperimentRow(
                    params=params,
                    estimate=mean_ci(samples),
                    extras={"find_rate": result.find_rate},
                )
                with self._condition:
                    self._rows[completed] = row
                    self._condition.notify_all()
                if self._progress_callback is not None:
                    self._progress_callback(self.progress())
            with self._condition:
                self._state = JobState.DONE
                self._condition.notify_all()
        except JobCancelledError as error:
            self._settle(JobState.CANCELLED, error)
        except BaseException as error:  # noqa: BLE001 — surfaced via result()
            self._settle(JobState.FAILED, error)

    def _settle(self, state: JobState, error: BaseException) -> None:
        with self._lock:
            children = dict(self._children)
        for child in children.values():
            child.cancel()
        with self._condition:
            self._state = state
            self._error = error
            self._condition.notify_all()


class Sweep:
    """Run a simulation trial over a parameter grid, trials times per point.

    Parameters
    ----------
    trial:
        A :class:`SimulationTrial`; each grid point is compiled into a
        single batched :func:`repro.sim.simulate` call.  Anything else
        raises :class:`~repro.errors.InvalidParameterError`.
    grid:
        Sequence of parameter dictionaries (one per grid point).  Use
        :func:`grid_product` to build Cartesian grids.
    trials:
        Repetitions per point.
    seed:
        Master seed; point ``i``, trial ``t`` gets the independent
        stream ``derive_seed(seed, *seed_keys, i, t)`` so any single
        trial is reproducible in isolation.
    workers:
        Number of worker processes.  ``1`` (default) executes in
        process; ``N > 1`` runs whole grid points across the job
        manager's process pool.  Only the requests cross the process
        boundary, so any factory works in parallel, and rows on a
        per-trial backend are bit-identical either way.
    seed_keys:
        Optional address prefix, letting several sweeps share one
        master seed without stream collisions (point ``i`` of a sweep
        tagged ``(7,)`` draws from ``derive_seed(seed, 7, i, t)``).
    """

    def __init__(
        self,
        trial: SimulationTrial,
        grid: Sequence[Mapping[str, object]],
        trials: int,
        seed: int,
        workers: int = 1,
        seed_keys: Tuple[int, ...] = (),
    ) -> None:
        if not isinstance(trial, SimulationTrial):
            raise InvalidParameterError(
                f"Sweep needs a SimulationTrial, got {type(trial).__name__}"
            )
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        if not grid:
            raise InvalidParameterError("grid must contain at least one point")
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self._trial = trial
        self._grid = [dict(point) for point in grid]
        self._trials = trials
        self._seed = seed
        self._workers = workers
        self._seed_keys = tuple(int(key) for key in seed_keys)

    def compile_requests(self) -> List[SimulationRequest]:
        """The per-point requests the sweep will execute.

        Each factory template is rebound to the sweep's addressing:
        ``n_trials`` becomes the repetition count and trial ``t`` of
        point ``i`` draws from ``derive_seed(seed, *seed_keys, i, t)``.
        """
        return [
            replace(
                self._trial.factory(params),
                n_trials=self._trials,
                seed=self._seed,
                seed_keys=(*self._seed_keys, point_index),
            )
            for point_index, params in enumerate(self._grid)
        ]

    def submit(
        self,
        manager: Optional[JobManager] = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ) -> SweepJob:
        """Submit the sweep for asynchronous execution.

        Returns the :class:`SweepJob` handle immediately; each grid
        point becomes a child job of ``manager`` (the process-wide one
        by default).  ``progress`` is invoked on the coordinator thread
        after every completed point.  Every point's backend is resolved
        here, so an unknown or unsupporting backend raises
        :class:`~repro.sim.backends.base.BackendError` at submission
        rather than failing later on the sweep's coordinator thread.
        """
        requests = self.compile_requests()
        for request in requests:
            resolve_backend(request, self._trial.backend)
        return SweepJob(
            trial=self._trial,
            entries=list(zip(self._grid, requests)),
            trials=self._trials,
            workers=self._workers,
            manager=manager if manager is not None else get_manager(),
            progress_callback=progress,
        )

    def run(
        self,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ) -> List[ExperimentRow]:
        """Execute the sweep and aggregate each point.

        ``progress`` is called after each completed grid point with a
        :class:`SweepProgress` snapshot — the hook the experiment CLI's
        ``--watch`` uses for live point-level reporting.
        """
        return self.submit(progress=progress).result()


def grid_product(**axes: Sequence[object]) -> List[Dict[str, object]]:
    """Cartesian product of named axes into a list of param dicts.

    ``grid_product(D=[8, 16], n=[1, 4])`` yields four points in
    row-major order.
    """
    if not axes:
        raise InvalidParameterError("need at least one axis")
    names = list(axes)
    points: List[Dict[str, object]] = [{}]
    for name in names:
        values = list(axes[name])
        if not values:
            raise InvalidParameterError(f"axis {name!r} is empty")
        points = [{**point, name: value} for point in points for value in values]
    return points


def rows_to_markdown(
    rows: Iterable[ExperimentRow],
    param_columns: Sequence[str],
    value_label: str = "measured",
    extra_columns: Sequence[str] = (),
) -> str:
    """Render rows as a GitHub-flavored markdown table."""
    header_cells = [*param_columns, value_label, "ci95", *extra_columns]
    lines = [
        "| " + " | ".join(header_cells) + " |",
        "|" + "|".join("---" for _ in header_cells) + "|",
    ]
    for row in rows:
        cells = [str(row.params.get(name, "")) for name in param_columns]
        cells.append(f"{row.estimate.mean:.4g}")
        cells.append(f"[{row.estimate.ci_low:.4g}, {row.estimate.ci_high:.4g}]")
        for name in extra_columns:
            value = row.extras.get(name)
            cells.append("" if value is None else f"{value:.4g}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
