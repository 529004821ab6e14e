"""The job layer: one execution core under sync and async.

Every simulation — blocking or not — runs through this module.
:meth:`JobManager.submit` turns a
:class:`~repro.sim.backends.base.SimulationRequest` into a
:class:`SimulationJob` executing the canonical pipeline::

    resolve backend -> cache lookup -> shard trials -> run -> store

on a driver thread; :meth:`JobManager.run` drives the same job on the
calling thread, as the blocking :func:`repro.sim.simulate` does.  The
async view adds three things on top of the same core:

* **states and progress** — a job moves ``PENDING -> RUNNING ->
  DONE/FAILED/CANCELLED``; :meth:`SimulationJob.progress` reports
  per-shard and per-trial completion while the job runs;
* **streaming** — :meth:`SimulationJob.iter_results` yields each
  completed trial shard as it lands (including shards served from the
  cache), so long sweeps deliver results incrementally instead of all
  at the end;
* **resume** — every finished shard is written through to the
  content-addressed result cache (shard-addressed entries next to the
  full-request entry), so a killed or cancelled job resumes from its
  completed shards on resubmission with zero re-simulation, proven by
  :func:`backend_run_count`.

Sharding preserves the per-trial seed contract: shard boundaries never
enter ``derive_seed(seed, *seed_keys, trial)``, so per-trial backends
produce bit-identical outcomes whatever the shard layout — which is
also what makes shard-level cache entries composable into the full
result.

The :class:`JobManager` owns the worker :class:`ProcessPoolExecutor`
(created lazily, grown on demand, shared across jobs) and mirrors job
states into a small JSON ledger under the cache directory
(``<cache>/jobs/<job_id>.json``), which is what ``repro-ants jobs
list|status|cancel`` reads — including from a different process, where
cancellation is requested through a ``<job_id>.cancel`` marker file
the driver polls at shard boundaries.  The ledger rule: jobs handed
out by :meth:`~JobManager.submit` write records; jobs driven by
:meth:`~JobManager.run` never do.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import json
import math
import os
import tempfile
import threading
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    JobCancelledError,
    TransientFaultError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    SpanContext,
    child_span,
    current_context,
    current_span,
    sink_directory,
    span,
    trace_dir,
)
from repro.resilience.faults import maybe_inject
from repro.sim.backends.base import (
    SimulationBackend,
    SimulationRequest,
    SimulationResult,
)
from repro.sim.backends.registry import AUTO, resolve_backend
from repro.sim.cache import cache_enabled, get_cache
from repro.sim.metrics import OutcomeBatch
from repro.sim.stats import mean_ci, normal_quantile

_RUNS_LOCK = threading.Lock()
_BACKEND_RUNS = 0

# Job-layer observability.  Everything here is attributed in the
# job-owning process: pooled shards report their worker-measured
# timings back with the outcomes, so colony throughput aggregates in
# one registry per serving process even though the compute happened in
# pool workers.
_REGISTRY = get_registry()
_JOBS_SUBMITTED = _REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs submitted, by backend.", ["backend"]
)
_JOBS_COMPLETED = _REGISTRY.counter(
    "repro_jobs_completed_total",
    "Jobs settled, by terminal state (done/failed/cancelled).",
    ["state"],
)
_JOB_SECONDS = _REGISTRY.histogram(
    "repro_job_seconds", "Wall-clock from submission to settlement.",
    ["backend"],
)
_SHARDS_TOTAL = _REGISTRY.counter(
    "repro_shards_total",
    "Trial shards delivered, by source (run/cache).",
    ["source"],
)
_COLONIES_TOTAL = _REGISTRY.counter(
    "repro_sim_colonies_total",
    "Simulated colonies (trials) executed, by family and backend.",
    ["family", "backend"],
)
_COMPUTE_SECONDS = _REGISTRY.counter(
    "repro_sim_compute_seconds_total",
    "Backend compute seconds spent executing trials, by family and "
    "backend (worker-measured for pooled shards; colonies/sec = "
    "colonies_total / this).",
    ["family", "backend"],
)
_RETRIES_TOTAL = _REGISTRY.counter(
    "repro_retries_total",
    "Retries performed by the resilience machinery, by layer "
    "(shard: pool shard re-execution; client: HTTP re-request).",
    ["layer"],
)


def _count_execution(
    family: str, backend_name: str, n_trials: int, elapsed_seconds: float
) -> None:
    """Record one timed backend execution (inline, pooled, adaptive)."""
    _COLONIES_TOTAL.inc(n_trials, family=family, backend=backend_name)
    _COMPUTE_SECONDS.inc(
        max(elapsed_seconds, 0.0), family=family, backend=backend_name
    )

#: How often a driver waiting on pool shards re-checks for cancellation
#: (in-process event or cross-process marker file).
_CANCEL_POLL_SECONDS = 0.1

#: Shard retry policy.  Retries are safe because shard outcomes are a
#: pure function of ``(request, backend, trial range)`` — a second
#: attempt is bit-identical to what the first would have produced.
_MAX_SHARD_ATTEMPTS = 3
_RETRY_BASE_SECONDS = 0.05
_RETRY_MAX_SECONDS = 2.0
#: Job-wide retry budget floor: however many shards, a job never
#: performs fewer than this many retries before giving up, and at most
#: two per shard on average.
_MIN_RETRY_BUDGET = 4

#: Errors the shard retry machinery treats as transient.  Deliberately
#: narrow: deterministic failures (bad parameters, backend bugs) would
#: fail identically on every attempt.
_RETRYABLE_ERRORS = (BrokenProcessPool, TransientFaultError, OSError)


def _retry_delay(job_id: str, shard_index: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter derives from ``(job_id, shard_index, attempt)`` — not
    global RNG state — so chaos runs are exactly reproducible and
    concurrent shards of one job still decorrelate their retries.
    """
    base = min(
        _RETRY_MAX_SECONDS, _RETRY_BASE_SECONDS * (2 ** max(attempt - 1, 0))
    )
    digest = hashlib.sha256(
        f"{job_id}:{shard_index}:{attempt}".encode()
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (0.5 + 0.5 * jitter)


def backend_run_count() -> int:
    """Backend executions performed by this process's jobs.

    Cache hits — full-request or shard-level — do not increment the
    counter; sharded runs count one execution per shard actually run.
    (Worker *processes* keep their own counters — the parent records
    the shards it dispatched and saw complete.)  The tests use this to
    prove that cached re-runs and resumed jobs simulate nothing they
    already have.
    """
    return _BACKEND_RUNS


def _count_backend_runs(count: int) -> None:
    global _BACKEND_RUNS
    with _RUNS_LOCK:
        _BACKEND_RUNS += count


class JobState(str, Enum):
    """Lifecycle of a :class:`SimulationJob`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: The states a job can settle in; shared with the sweep handle.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class ShardResult:
    """One completed trial shard of a job, streamed as it lands."""

    shard_index: int
    trial_start: int
    trial_count: int
    outcomes: OutcomeBatch
    from_cache: bool

    @property
    def trial_indices(self) -> range:
        """The trial indices this shard covers."""
        return range(self.trial_start, self.trial_start + self.trial_count)


@dataclass(frozen=True)
class JobProgress:
    """A snapshot of one job's completion state."""

    state: JobState
    total_shards: int
    done_shards: int
    total_trials: int
    done_trials: int
    cached_shards: int

    @property
    def fraction(self) -> float:
        """Completed trials as a fraction of the total."""
        if self.total_trials == 0:
            return 1.0
        return self.done_trials / self.total_trials


def _chunk_trials(n_trials: int, workers: int) -> List[range]:
    """Contiguous trial-index ranges, one per worker (possibly fewer).

    Deterministic in ``(n_trials, workers)`` — the shard layout is part
    of what makes resumed jobs hit their own shard cache entries.
    """
    n_chunks = min(workers, n_trials)
    base, remainder = divmod(n_trials, n_chunks)
    chunks: List[range] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < remainder else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def _run_shard_task(
    request: SimulationRequest,
    backend_name: str,
    trial_indices: Optional[Sequence[int]],
    trace_context: Optional[Dict[str, str]] = None,
    trace_directory: Optional[str] = None,
    shard_index: Optional[int] = None,
    attempt: int = 0,
) -> Tuple[OutcomeBatch, float]:
    """Worker-process entry point: run one shard of a request.

    Returns ``(outcomes, elapsed_seconds)`` — the timing is measured in
    the worker (pure backend execution, no dispatch/pickling cost) and
    counted into the throughput metrics by the parent driver.

    ``trace_context`` is the driver's job-span context, carried
    explicitly because contextvars do not cross the process boundary:
    the worker opens its "shard" span under it, so pooled shards (and
    the kernel spans beneath them) stitch into the submitting trace via
    the shared JSONL sink.  ``trace_directory`` is the driver's sink
    directory: a forked worker keeps the cache configuration of the
    moment it was forked, so without it the worker would write its
    spans wherever the cache pointed back then.

    ``attempt`` is the retry generation (0 = first try).  It feeds the
    ``worker.shard`` fault seam so chaos rules can target exactly one
    attempt of one shard (``match={"shard_index": 2, "attempt": 0}``
    kills the first try and lets the retry through), and is stamped on
    the shard span for trace forensics.
    """
    context: Optional[SpanContext] = None
    if trace_context is not None:
        try:
            context = SpanContext.from_payload(trace_context)
        except (KeyError, TypeError, ValueError):
            context = None
    opened = (
        span(
            "shard",
            context=context,
            shard_index=shard_index,
            trial_count=(
                request.n_trials if trial_indices is None else len(trial_indices)
            ),
            backend=backend_name,
        )
        if context is not None
        else contextlib.nullcontext(None)
    )
    with sink_directory(trace_directory), opened as sp:
        if sp is not None and attempt > 0:
            sp.set_attribute("attempt", attempt)
        maybe_inject(
            "worker.shard",
            shard_index=shard_index,
            attempt=attempt,
            backend=backend_name,
        )
        backend = resolve_backend(request, backend_name)
        start = time.perf_counter()
        if trial_indices is None:
            outcomes = backend.run(request)
        else:
            outcomes = backend.run(request, trial_indices=trial_indices)
        return outcomes, time.perf_counter() - start


class SimulationJob:
    """Handle for one submitted simulation request.

    Created by :class:`JobManager`; never constructed directly.  A
    submitted job executes on a driver thread owned by the manager;
    this handle is the thread-safe view — poll :meth:`progress`,
    stream :meth:`iter_results`, block on :meth:`result`, or
    :meth:`cancel`.
    """

    def __init__(
        self,
        job_id: str,
        request: SimulationRequest,
        backend_name: str,
        shards: List[Optional[range]],
        use_cache: bool,
        pool_workers: int,
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.backend = backend_name
        self._shards = shards
        self._use_cache = use_cache
        self._pool_workers = pool_workers
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._state = JobState.PENDING
        # Set once the job is terminal *and* its terminal bookkeeping
        # is done: what result() and iter_results() wait for.
        self._released = False
        self._shard_outcomes: List[Optional[OutcomeBatch]] = [
            None for _ in shards
        ]
        self._emitted: List[ShardResult] = []
        self._cached_shards = 0
        self._error: Optional[BaseException] = None
        self._cancel_event = threading.Event()
        self._submitted_at = time.time()
        self._finished_at: Optional[float] = None
        # Request-level deadline, anchored at submission on the
        # monotonic clock (wall-clock steps must not fire deadlines).
        self._deadline_monotonic: Optional[float] = (
            None
            if request.deadline_seconds is None
            else time.monotonic() + request.deadline_seconds
        )
        # Resilience bookkeeping: shard retries performed.
        self._retries = 0
        # The module docstring's ledger rule: only submit() sets it.
        self._ledger_enabled = False
        self._trace_ctx: Optional[SpanContext] = None

    # -- read side -------------------------------------------------------

    @property
    def state(self) -> JobState:
        """The job's current lifecycle state."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def cancel_requested(self) -> bool:
        """Whether cancellation has been requested (state may lag)."""
        return self._cancel_event.is_set()

    def exception(self) -> Optional[BaseException]:
        """The failure cause for a ``FAILED`` job, else ``None``."""
        with self._lock:
            return self._error

    def progress(self) -> JobProgress:
        """Per-shard / per-trial completion snapshot."""
        with self._lock:
            done_shards = sum(
                1 for outcomes in self._shard_outcomes if outcomes is not None
            )
            done_trials = sum(
                len(outcomes)
                for outcomes in self._shard_outcomes
                if outcomes is not None
            )
            return JobProgress(
                state=self._state,
                total_shards=len(self._shards),
                done_shards=done_shards,
                total_trials=self.request.n_trials,
                done_trials=done_trials,
                cached_shards=self._cached_shards,
            )

    def iter_results(self) -> Iterator[ShardResult]:
        """Yield completed shards as they land, in landing order.

        Cache-served shards are yielded too (``from_cache=True``), so a
        fully cached job still streams its results.  Iteration ends
        when the job reaches a terminal state; a ``FAILED`` job raises
        its error after the shards that did complete, a ``CANCELLED``
        one raises :class:`~repro.errors.JobCancelledError`.  Safe to
        call multiple times (each iterator replays from the start) and
        after completion.
        """
        index = 0
        while True:
            with self._condition:
                while index >= len(self._emitted) and not self._released:
                    self._condition.wait()
                if index < len(self._emitted):
                    shard = self._emitted[index]
                else:
                    if self._state is JobState.FAILED:
                        raise self._error  # noqa: raise-from — original error
                    if self._state is JobState.CANCELLED:
                        raise JobCancelledError(
                            f"job {self.job_id} was cancelled after "
                            f"{len(self._emitted)}/{len(self._shards)} shards"
                        )
                    return
            index += 1
            yield shard

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        """Block until terminal and return the assembled result.

        Raises the job's error for ``FAILED``,
        :class:`~repro.errors.JobCancelledError` for ``CANCELLED``, and
        ``TimeoutError`` if ``timeout`` elapses first.
        """
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._released, timeout=timeout
            ):
                raise TimeoutError(
                    f"job {self.job_id} still {self._state.value} "
                    f"after {timeout}s"
                )
            if self._state is JobState.FAILED:
                raise self._error
            if self._state is JobState.CANCELLED:
                raise JobCancelledError(f"job {self.job_id} was cancelled")
            return SimulationResult(
                request=self.request,
                backend=self.backend,
                outcomes=OutcomeBatch.concat(self._shard_outcomes),
            )

    # -- control side ----------------------------------------------------

    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already terminal.

        Pending shards are abandoned; shards already running are
        allowed to finish and are still written through to the cache
        (so a cancelled job's completed work is never lost), after
        which the job settles in ``CANCELLED``.
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
        self._cancel_event.set()
        return True

    # -- driver-internal mutations --------------------------------------

    def _mark_running(self) -> None:
        with self._condition:
            if self._state is JobState.PENDING:
                self._state = JobState.RUNNING
            self._condition.notify_all()

    def _record_shard(
        self,
        shard_index: int,
        outcomes: OutcomeBatch,
        from_cache: bool,
    ) -> None:
        shard = self._shards[shard_index]
        trial_start = shard.start if shard is not None else 0
        _SHARDS_TOTAL.inc(source="cache" if from_cache else "run")
        with self._condition:
            self._shard_outcomes[shard_index] = outcomes
            if from_cache:
                self._cached_shards += 1
            self._emitted.append(
                ShardResult(
                    shard_index=shard_index,
                    trial_start=trial_start,
                    trial_count=len(outcomes),
                    outcomes=outcomes,
                    from_cache=from_cache,
                )
            )
            self._condition.notify_all()

    def _finish(
        self,
        state: JobState,
        error: Optional[BaseException],
        before_release: Callable[["SimulationJob"], None],
    ) -> None:
        """Settle in ``state``.  ``before_release(self)`` runs once the
        terminal state shows in :meth:`progress` but before
        :meth:`result` and :meth:`iter_results` return — where the
        manager writes the terminal ledger record, so a reader right
        after ``result()`` sees the final state."""
        with self._condition:
            if self._state in TERMINAL_STATES:
                return
            self._state = state
            self._error = error
            self._finished_at = time.time()
        try:
            before_release(self)
        finally:
            with self._condition:
                self._released = True
                self._condition.notify_all()

    def _complete_from_cache(self, outcomes: OutcomeBatch) -> None:
        """Full-request cache hit: collapse to one cached shard, DONE."""
        _SHARDS_TOTAL.inc(source="cache")
        with self._condition:
            self._shards = [None]
            self._shard_outcomes = [outcomes]
            self._cached_shards = 1
            self._emitted.append(
                ShardResult(
                    shard_index=0,
                    trial_start=0,
                    trial_count=len(outcomes),
                    outcomes=outcomes,
                    from_cache=True,
                )
            )
            self._state = JobState.DONE
            self._finished_at = time.time()
            self._released = True
            self._condition.notify_all()


def ledger_dir() -> Path:
    """Where job records live: ``<cache dir>/jobs``.

    Computed per call (not cached) so it follows the active cache
    configuration — both ``REPRO_ANTS_CACHE_DIR`` and
    ``configure_cache(directory=...)`` redirections move the ledger
    with the cache.
    """
    return get_cache().directory / "jobs"


def _cancel_marker(job_id: str) -> Path:
    return ledger_dir() / f"{job_id}.cancel"


_TERMINAL_RECORD_STATES = frozenset(
    state.value for state in TERMINAL_STATES
)


def request_cancel(job_id: str) -> bool:
    """Ask a possibly-foreign process to cancel ``job_id``.

    Writes the ``<job_id>.cancel`` marker the owning driver polls at
    shard boundaries; if the job lives in *this* process it is also
    cancelled directly.  Returns ``False`` — and leaves no marker
    behind — when the job is unknown or already terminal.
    """
    job = get_manager().get(job_id)
    if job is not None:
        if not job.cancel():
            return False
    else:
        record = next(
            (r for r in read_job_records() if r.get("job_id") == job_id),
            None,
        )
        if record is None or record.get("state") in _TERMINAL_RECORD_STATES:
            return False
        if not _owner_alive(record):
            return False  # crashed owner: nothing left to cancel
    try:
        ledger_dir().mkdir(parents=True, exist_ok=True)
        _cancel_marker(job_id).touch()
    except OSError:
        pass
    return True


def job_record(job: SimulationJob) -> dict:
    """The ledger-shaped record of one live in-process job.

    The same dict the manager persists to ``<cache>/jobs/<id>.json``,
    built from the job's current progress — shared by the ledger
    writer, ``repro-ants jobs status``, and the HTTP status route.
    """
    progress = job.progress()
    return {
        "job_id": job.job_id,
        "state": progress.state.value,
        "algorithm": job.request.algorithm.name,
        "backend": job.backend,
        "n_trials": job.request.n_trials,
        "n_agents": job.request.n_agents,
        "seed": job.request.seed,
        "total_shards": progress.total_shards,
        "done_shards": progress.done_shards,
        "done_trials": progress.done_trials,
        "cached_shards": progress.cached_shards,
        "submitted_at": job._submitted_at,
        "finished_at": job._finished_at,
        "updated_at": time.time(),
        "pid": os.getpid(),
        "error": (
            str(job.exception()) if job.exception() is not None else None
        ),
        "retries": job._retries,
    }


def find_job_record(job_id: str) -> Optional[dict]:
    """The persisted ledger record for ``job_id``, or ``None``.

    A direct single-file read — no directory scan — so status lookups
    stay cheap however many records the ledger holds.
    """
    path = ledger_dir() / f"{job_id}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(record, dict) and record.get("job_id") == job_id:
        return record
    return None


def job_status_record(job_id: str) -> Optional[dict]:
    """The freshest status view of a job: live handle, then ledger.

    A job still registered with this process's manager reports its live
    progress; a finished job that was evicted from the in-process
    registry (:attr:`JobManager.MAX_RETAINED_JOBS`) — or one owned by a
    different process entirely — falls back to its JSON ledger record
    instead of being reported unknown.  ``None`` only when neither
    exists.
    """
    job = get_manager().get(job_id)
    if job is not None:
        return job_record(job)
    return find_job_record(job_id)


def read_job_records() -> List[dict]:
    """All persisted job records, newest submission first.

    Best-effort: unreadable or corrupt records are skipped.  Records
    describe jobs from any process sharing the cache directory.
    """
    directory = ledger_dir()
    records: List[dict] = []
    if not directory.is_dir():
        return records
    for path in directory.glob("*.json"):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and "job_id" in record:
            records.append(record)
    records.sort(key=lambda record: record.get("submitted_at", 0), reverse=True)
    return records


#: Retention bound: the ledger keeps at most this many records; older
#: terminal ones are dropped by the per-process prune pass.
_MAX_LEDGER_RECORDS = 500


def _owner_alive(record: dict) -> bool:
    """Whether the process that wrote this record still exists.

    Same-host check (the ledger lives in a local cache directory): a
    record whose owner died — kill -9, crash — can never progress, so
    pruning treats it as terminal.
    """
    pid = record.get("pid")
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)


#: The state reported for a non-terminal ledger record whose owning
#: process no longer exists: the run crashed, but every shard it
#: finished is in the shard cache, so resubmitting the same request
#: resumes from them (``backend_run_count`` proves zero re-simulation).
FAILED_RECOVERABLE = "failed-recoverable"


def effective_state(record: dict) -> str:
    """A ledger record's state, with crashed owners made visible.

    A record that claims ``pending``/``running`` but whose writing
    process is dead can never progress — ``repro-ants jobs list`` and
    the server's job listing report it as :data:`FAILED_RECOVERABLE`
    instead of letting it pose as live forever.
    """
    state = str(record.get("state", "unknown"))
    if state not in _TERMINAL_RECORD_STATES and not _owner_alive(record):
        return FAILED_RECOVERABLE
    return state


def prune_job_records(max_records: int = _MAX_LEDGER_RECORDS) -> int:
    """Drop the oldest settled ledger records beyond ``max_records``.

    "Settled" means terminal state *or* a non-terminal record whose
    owning process is dead (a crashed run can never progress).  Also
    removes orphaned ``.cancel`` markers whose job record is settled
    or gone.  Runs automatically once per process on the first
    submission, and behind ``repro-ants jobs clear``.  Returns the
    number of files removed.
    """
    directory = ledger_dir()
    if not directory.is_dir():
        return 0
    records = read_job_records()  # newest first
    removed = 0
    terminal = {
        r["job_id"] for r in records
        if r.get("state") in _TERMINAL_RECORD_STATES or not _owner_alive(r)
    }
    known = {r["job_id"] for r in records}
    for record in records[max_records:]:
        if record["job_id"] not in terminal:
            continue
        try:
            (directory / f"{record['job_id']}.json").unlink()
            removed += 1
        except OSError:
            pass
    for marker in directory.glob("*.cancel"):
        job_id = marker.name[: -len(".cancel")]
        if job_id not in known or job_id in terminal:
            try:
                marker.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def oldest_finished(handles: Mapping[str, Any], limit: int) -> List[str]:
    """The first ``limit`` keys, in insertion order, whose handle is done.

    Stops at the ``limit``-th finished handle instead of asking every
    one, so trimming a registry whose oldest entries are finished (the
    usual case) costs about ``limit`` ``done()`` calls, not one per
    tracked handle.
    """
    finished = (key for key, handle in handles.items() if handle.done())
    return list(islice(finished, limit))


class JobManager:
    """Owns job execution: driver threads, the process pool, the ledger.

    One manager per process (see :func:`get_manager`).  ``submit`` and
    ``run`` validate and resolve synchronously — bad parameters and
    unsupported backends fail at the call site — then ``submit`` drives
    the job on a daemon thread and ``run`` on the calling thread.
    """

    #: In-process registry bound: terminal jobs beyond this are evicted
    #: (their outcomes would otherwise accumulate for the process's
    #: lifetime); their ledger records and cache entries survive.
    MAX_RETAINED_JOBS = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, SimulationJob] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._retired_pools: List[ProcessPoolExecutor] = []
        self._ledger_pruned = False

    def submit(
        self,
        request: SimulationRequest,
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
        run_in_pool: bool = False,
        pool_size: Optional[int] = None,
    ) -> SimulationJob:
        """Start a simulation job on a driver thread and return its handle.

        Parameters mirror :func:`repro.sim.simulate`; additionally
        ``run_in_pool`` forces even a single-shard job onto the shared
        process pool (sized ``pool_size``) instead of the driver
        thread — the sweep executor uses this to run whole grid points
        in parallel worker processes.
        """
        job, chosen = self._register(
            request, backend, workers, cache, run_in_pool, pool_size
        )
        job._ledger_enabled = True
        return self._spawn(job, chosen)

    def run(
        self,
        request: SimulationRequest,
        backend: str = AUTO,
        workers: int = 1,
        cache: Optional[bool] = None,
    ) -> SimulationResult:
        """Run a simulation job on the calling thread; return its result.

        The same job :meth:`submit` builds — span, metrics, cache, shard
        retries, deadline, the pool when ``workers > 1`` — with no
        driver thread and no ledger record.
        """
        job, chosen = self._register(request, backend, workers, cache)
        self._drive(job, chosen)
        return job.result()

    def _register(
        self,
        request: SimulationRequest,
        backend: str,
        workers: int,
        cache: Optional[bool],
        run_in_pool: bool = False,
        pool_size: Optional[int] = None,
    ) -> Tuple[SimulationJob, SimulationBackend]:
        """Validate, build and register a job that has not started yet."""
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        chosen = resolve_backend(request, backend)
        if workers == 1 or request.n_trials == 1:
            shards: List[Optional[range]] = [None]
        else:
            shards = list(_chunk_trials(request.n_trials, workers))
        use_cache = cache_enabled() if cache is None else cache
        job = SimulationJob(
            job_id=f"job-{uuid.uuid4().hex[:12]}",
            request=request,
            backend_name=chosen.name,
            shards=shards,
            use_cache=use_cache,
            pool_workers=(pool_size or workers) if (run_in_pool or len(shards) > 1) else 0,
        )
        # A driver thread cannot see the submitter's contextvars, so
        # the ambient span (a client request, an experiment program, a
        # server route) is captured here and re-attached in _drive —
        # that is what parents the job span under its caller.
        job._trace_ctx = current_context()
        _JOBS_SUBMITTED.inc(backend=chosen.name)
        with self._lock:
            self._jobs[job.job_id] = job
            if len(self._jobs) > self.MAX_RETAINED_JOBS:
                overflow = len(self._jobs) - self.MAX_RETAINED_JOBS
                for stale_id in oldest_finished(self._jobs, overflow):
                    del self._jobs[stale_id]
            prune_now = not self._ledger_pruned
            self._ledger_pruned = True
        if prune_now:
            # Bound ledger growth: once per process, drop old terminal
            # records and orphaned cancel markers.
            prune_job_records()
        return job, chosen

    def _spawn(
        self, job: SimulationJob, backend: SimulationBackend
    ) -> SimulationJob:
        """Drive a registered job on a new daemon thread."""
        threading.Thread(
            target=self._drive,
            args=(job, backend),
            name=f"repro-job-{job.job_id}",
            daemon=True,
        ).start()
        return job

    def get(self, job_id: str) -> Optional[SimulationJob]:
        """The in-process job with this id, if any."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[SimulationJob]:
        """All jobs submitted through this manager, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def close(self) -> None:
        """Shut the process pool down (idempotent)."""
        with self._lock:
            pool, self._pool, self._pool_size = self._pool, None, 0
            retired, self._retired_pools = self._retired_pools, []
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for old in retired:
            old.shutdown(wait=False, cancel_futures=True)

    # -- execution -------------------------------------------------------

    def _ensure_pool(
        self, workers: int, requester: Optional[SimulationJob] = None
    ) -> ProcessPoolExecutor:
        """The shared pool, grown (never shrunk) to ``workers``.

        Keeping the current pool warm across jobs is deliberate —
        worker spawn cost is amortized over a sweep's many points.
        """
        with self._lock:
            if self._pool is None or self._pool_size < workers:
                old = self._pool
                self._pool = ProcessPoolExecutor(max_workers=workers)
                self._pool_size = workers
                if old is not None:
                    # A concurrent job may still be submitting shards to
                    # its captured reference, and submit-after-shutdown
                    # raises.  Only reclaim the old workers immediately
                    # when no *other* job is live; otherwise park the
                    # pool for close() to settle at exit.
                    others_live = any(
                        job is not requester and not job.done()
                        for job in self._jobs.values()
                    )
                    if others_live:
                        self._retired_pools.append(old)
                    else:
                        old.shutdown(wait=False)
            return self._pool

    def _cancel_requested(self, job: SimulationJob) -> bool:
        if job.cancel_requested():
            return True
        try:
            if _cancel_marker(job.job_id).exists():
                job.cancel()
                return True
        except OSError:
            pass
        return False

    def _drive(self, job: SimulationJob, backend: SimulationBackend) -> None:
        """The job span around the pipeline, on the driving thread."""
        with span(
            "job",
            context=job._trace_ctx,
            job_id=job.job_id,
            backend=job.backend,
            algorithm=job.request.algorithm.name,
            n_trials=job.request.n_trials,
        ) as sp:
            try:
                self._execute(job, backend)
            except BaseException as error:  # noqa: BLE001 — surfaced via result()
                job._finish(JobState.FAILED, error, self._write_terminal_record)
            state = job.state
            _JOBS_COMPLETED.inc(state=state.value)
            if job._finished_at is not None:
                _JOB_SECONDS.observe(
                    max(job._finished_at - job._submitted_at, 0.0),
                    backend=job.backend,
                )
            if sp is not None:
                sp.set_attribute("state", state.value)
                sp.set_attribute("cached_shards", job.progress().cached_shards)
                if job._retries:
                    sp.set_attribute("retries", job._retries)
                if state is JobState.FAILED:
                    sp.set_status("error")

    def _write_terminal_record(self, job: SimulationJob) -> None:
        self._write_ledger(job)
        try:
            _cancel_marker(job.job_id).unlink()
        except OSError:
            pass

    def _check_deadline(
        self,
        job: SimulationJob,
        futures: Optional[Dict[Future, int]] = None,
    ) -> None:
        """Raise once the job's submission-anchored deadline passes."""
        deadline = job._deadline_monotonic
        if deadline is None or time.monotonic() <= deadline:
            return
        if futures:
            for future in futures:
                future.cancel()
        raise DeadlineExceededError(
            f"job {job.job_id} exceeded its "
            f"{job.request.deadline_seconds}s deadline; completed "
            f"shards remain cached, resubmitting resumes from them"
        )

    def _execute(
        self, job: SimulationJob, backend: SimulationBackend
    ) -> None:
        """The canonical execution pipeline."""
        job._mark_running()
        cache = get_cache() if job._use_cache else None
        request = job.request

        if cache is not None:
            full = cache.lookup(request, job.backend)
            if full is not None:
                # Served entirely from memory/disk cache: skip the
                # ledger altogether — a replay that simulated
                # nothing is not worth disk I/O per call, and the
                # original run's record already exists.
                job._complete_from_cache(full)
                return
        self._write_ledger(job)

        pending: List[int] = []
        for shard_index, indices in enumerate(job._shards):
            hit = None
            if cache is not None and indices is not None:
                hit = cache.lookup_shard(request, job.backend, indices)
            if hit is not None:
                job._record_shard(shard_index, hit, from_cache=True)
            else:
                pending.append(shard_index)

        if self._cancel_requested(job):
            job._finish(JobState.CANCELLED, None, self._write_terminal_record)
            return
        self._check_deadline(job)

        if pending and job._pool_workers == 0:
            # Single shard, no pool requested: run inline on the
            # thread driving the job.
            outcomes, elapsed = self._run_inline(job, backend, pending[0])
            _count_backend_runs(1)
            _count_execution(
                request.algorithm.name, job.backend, len(outcomes), elapsed
            )
            job._record_shard(pending[0], outcomes, from_cache=False)
            if cache is not None:
                cache.store(request, job.backend, outcomes)
        elif pending:
            cancelled = self._run_pooled(job, cache, pending)
            if cancelled:
                job._finish(
                    JobState.CANCELLED, None, self._write_terminal_record
                )
                return

        if cache is not None and len(job._shards) > 1:
            # Publish the assembled full-request entry next to the
            # shard entries so future lookups hit in one probe.
            cache.store(
                request, job.backend,
                OutcomeBatch.concat(job._shard_outcomes),
            )
        job._finish(JobState.DONE, None, self._write_terminal_record)

    def _run_inline(
        self, job: SimulationJob, backend: SimulationBackend, shard_index: int
    ) -> Tuple[OutcomeBatch, float]:
        """Run the whole request on the driving thread, with retries."""
        request = job.request
        attempt = 0
        while True:
            self._check_deadline(job)
            try:
                with child_span(
                    "shard",
                    shard_index=shard_index,
                    trial_count=request.n_trials,
                    backend=job.backend,
                ) as sp:
                    if sp is not None and attempt > 0:
                        sp.set_attribute("attempt", attempt)
                    maybe_inject(
                        "backend.run",
                        backend=job.backend,
                        shard_index=shard_index,
                        attempt=attempt,
                    )
                    run_start = time.perf_counter()
                    outcomes = backend.run(request)
                    return outcomes, time.perf_counter() - run_start
            except _RETRYABLE_ERRORS:
                attempt += 1
                if attempt >= _MAX_SHARD_ATTEMPTS:
                    raise
                job._retries += 1
                _RETRIES_TOTAL.inc(layer="shard")
                time.sleep(_retry_delay(job.job_id, shard_index, attempt))

    def _replace_broken_pool(
        self, broken: ProcessPoolExecutor, job: SimulationJob
    ) -> ProcessPoolExecutor:
        """Discard a pool whose worker died; return a fresh one.

        Safe under sharing: only the first job to observe the breakage
        replaces the manager's pool (the identity check), everyone else
        just picks up the replacement from :meth:`_ensure_pool`.
        """
        with self._lock:
            if self._pool is broken:
                self._pool = None
                self._pool_size = 0
        broken.shutdown(wait=False, cancel_futures=True)
        return self._ensure_pool(job._pool_workers, requester=job)

    def _run_pooled(
        self,
        job: SimulationJob,
        cache,
        pending: List[int],
    ) -> bool:
        """Run the pending shards on the shared pool; True if cancelled.

        On cancellation, not-yet-started shards are dropped but
        in-flight ones are awaited and written through to the cache —
        completed work survives for resumption.

        Transient shard failures — a killed worker (the pool breaks for
        every in-flight shard at once), an OS-level blip, an injected
        :class:`~repro.errors.TransientFaultError` — are retried with
        exponential backoff and deterministic jitter, at most
        :data:`_MAX_SHARD_ATTEMPTS` per shard within a job-wide retry
        budget.  Shards already written through to the cache are never
        re-run: a retry re-executes only the attempt that failed, and
        its outcomes are bit-identical to what the lost attempt would
        have produced (shard outcomes are pure in the trial range).
        """
        pool = self._ensure_pool(job._pool_workers, requester=job)
        request = job.request
        # Hand the ambient job span to each worker explicitly — the
        # pool boundary is where contextvars stop.
        context = current_context()
        trace_payload = None if context is None else context.to_payload()
        trace_directory = trace_dir()
        attempts: Dict[int, int] = {index: 0 for index in pending}
        retry_budget = max(_MIN_RETRY_BUDGET, 2 * len(pending))
        futures: Dict[Future, int] = {}

        def submit_shard(shard_index: int) -> None:
            nonlocal pool
            indices = job._shards[shard_index]
            args = (
                request,
                job.backend,
                None if indices is None else list(indices),
                trace_payload,
                trace_directory,
                shard_index,
                attempts[shard_index],
            )
            try:
                future = pool.submit(_run_shard_task, *args)
            except (BrokenProcessPool, RuntimeError):
                # The shared pool broke under another job's feet (or
                # was shut down behind us): rebuild once and resubmit.
                pool = self._replace_broken_pool(pool, job)
                future = pool.submit(_run_shard_task, *args)
            futures[future] = shard_index

        for shard_index in pending:
            submit_shard(shard_index)
        cancelled = False
        while futures:
            if not cancelled and self._cancel_requested(job):
                cancelled = True
                for future in list(futures):
                    if future.cancel():
                        del futures[future]
            self._check_deadline(job, futures)
            done, _ = wait(
                futures, timeout=_CANCEL_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            retry_indices: List[int] = []
            pool_broken = False
            for future in done:
                shard_index = futures.pop(future)
                try:
                    outcomes, elapsed = future.result()
                except BaseException as error:
                    retryable = (
                        not cancelled
                        and isinstance(error, _RETRYABLE_ERRORS)
                        and attempts[shard_index] + 1 < _MAX_SHARD_ATTEMPTS
                        and job._retries < retry_budget
                    )
                    if not retryable:
                        # Out of budget (or a deterministic failure):
                        # fail the job; don't leave the rest burning
                        # pool capacity.
                        for remaining in futures:
                            remaining.cancel()
                        raise
                    attempts[shard_index] += 1
                    job._retries += 1
                    _RETRIES_TOTAL.inc(layer="shard")
                    sp = current_span()
                    if sp is not None:
                        sp.set_attribute("retries", job._retries)
                    retry_indices.append(shard_index)
                    if isinstance(error, BrokenProcessPool):
                        pool_broken = True
                    continue
                _count_backend_runs(1)
                _count_execution(
                    request.algorithm.name, job.backend, len(outcomes), elapsed
                )
                job._record_shard(shard_index, outcomes, from_cache=False)
                if cache is not None:
                    indices = job._shards[shard_index]
                    if indices is None:
                        cache.store(request, job.backend, outcomes)
                    else:
                        cache.store_shard(
                            request, job.backend, indices, outcomes
                        )
                self._write_ledger(job)
            if retry_indices:
                if pool_broken:
                    # A worker death breaks the whole executor: every
                    # sibling future fails with BrokenProcessPool too
                    # (and retries through this same path); replace the
                    # pool before resubmitting anything onto it.
                    pool = self._replace_broken_pool(pool, job)
                for shard_index in retry_indices:
                    time.sleep(
                        _retry_delay(
                            job.job_id, shard_index, attempts[shard_index]
                        )
                    )
                    submit_shard(shard_index)
        return cancelled

    # -- ledger ----------------------------------------------------------

    def _write_ledger(self, job: SimulationJob) -> None:
        """Best-effort persisted job record for the CLI."""
        if not job._ledger_enabled:
            return
        record = job_record(job)
        try:
            directory = ledger_dir()
            directory.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(temp_name, directory / f"{job.job_id}.json")
        except OSError:
            pass


_GLOBAL_MANAGER: Optional[JobManager] = None
_MANAGER_LOCK = threading.Lock()


def get_manager() -> JobManager:
    """The process-wide :class:`JobManager` (created lazily)."""
    global _GLOBAL_MANAGER
    with _MANAGER_LOCK:
        if _GLOBAL_MANAGER is None:
            _GLOBAL_MANAGER = JobManager()
            atexit.register(_GLOBAL_MANAGER.close)
        return _GLOBAL_MANAGER


def simulate_async(
    request: SimulationRequest,
    backend: str = AUTO,
    workers: int = 1,
    cache: Optional[bool] = None,
) -> SimulationJob:
    """Submit a request for asynchronous execution.

    Returns immediately with a :class:`SimulationJob`; stream shards
    with :meth:`~SimulationJob.iter_results`, poll
    :meth:`~SimulationJob.progress`, or block on
    :meth:`~SimulationJob.result`.  The job writes ledger records.
    """
    return get_manager().submit(
        request, backend=backend, workers=workers, cache=cache
    )


# -- adaptive sampling ----------------------------------------------------

#: Metrics :func:`simulate_adaptive` can target.
ADAPTIVE_METRICS = ("hit_probability", "moves")


@dataclass(frozen=True)
class AdaptiveRun:
    """What an adaptive sampling run did and where it stopped.

    ``result`` holds the trials actually executed (a prefix of the
    request's ``n_trials``); ``estimate`` / ``half_width`` describe the
    interval at the stopping point; ``converged`` is False when the
    full trial budget ran out before the target width was met.
    ``batches_cached`` counts batches served from the shard cache —
    a repeat of an identical adaptive run replays entirely from cache
    (provable via :func:`backend_run_count`).
    """

    result: SimulationResult
    metric: str
    target_half_width: float
    confidence: float
    estimate: float
    half_width: float
    trials_used: int
    max_trials: int
    batches_run: int
    batches_cached: int
    converged: bool


def _adaptive_estimate(
    metric: str, outcomes: OutcomeBatch, confidence: float
) -> Tuple[float, float]:
    """(point estimate, CI half-width) for the accumulated outcomes.

    Hit probability uses the Agresti–Coull interval — its ``z²``
    pseudo-observations keep the width finite and honest at observed
    rates of exactly 0 or 1, where a Wald interval would collapse to
    zero width and stop adaptive runs after one batch.  Expected moves
    uses the normal-approximation mean interval over the censored
    per-trial move counts (``m_moves`` or the budget).
    """
    n = len(outcomes)
    if metric == "hit_probability":
        z = normal_quantile(0.5 + confidence / 2.0)
        hits = int(outcomes.found.sum())
        n_tilde = n + z * z
        p_tilde = (hits + z * z / 2.0) / n_tilde
        half = z * math.sqrt(max(p_tilde * (1.0 - p_tilde), 0.0) / n_tilde)
        return p_tilde, half
    samples = outcomes.moves_or_budget().astype(float)
    if n < 2:
        return (float(samples[0]) if n else math.inf), math.inf
    est = mean_ci(samples, confidence)
    return est.mean, (est.ci_high - est.ci_low) / 2.0


def simulate_adaptive(
    request: SimulationRequest,
    metric: str = "hit_probability",
    target_half_width: float = 0.05,
    confidence: float = 0.95,
    batch_size: int = 32,
    min_trials: int = 2,
    backend: str = AUTO,
    cache: Optional[bool] = None,
) -> AdaptiveRun:
    """Run trials in batches until the metric's CI is tight enough.

    The request's ``n_trials`` is the trial *budget*; batches of
    ``batch_size`` trials are consumed **in index order** —
    ``[0, B), [B, 2B), ...`` — until the ``confidence``-level interval
    half-width on ``metric`` drops to ``target_half_width`` (or the
    budget runs out, reported as ``converged=False``).

    Index-order consumption is what keeps the seed contract and the
    shard cache intact: trial ``t`` still draws from
    ``derive_seed(seed, *seed_keys, t)``, every completed batch is
    written through as an ordinary shard entry
    (``lookup_shard``/``store_shard``), and when the budget is fully
    consumed the assembled full-request entry is stored too — so
    adaptive runs, fixed runs, and resumed jobs all share one cache
    population.  Batches execute inline via ``backend.run(request,
    trial_indices=...)`` on the calling thread, each counted once in
    :func:`backend_run_count` unless served from cache.

    ``backend`` is resolved like everywhere else
    (:func:`~repro.sim.backends.registry.resolve_backend`: a registered
    name, or ``"auto"`` for the static priority ranking).
    """
    if metric not in ADAPTIVE_METRICS:
        raise InvalidParameterError(
            f"metric must be one of {', '.join(ADAPTIVE_METRICS)}, got {metric!r}"
        )
    if target_half_width <= 0:
        raise InvalidParameterError(
            f"target_half_width must be > 0, got {target_half_width}"
        )
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if batch_size < 1:
        raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
    if min_trials < 2:
        raise InvalidParameterError(f"min_trials must be >= 2, got {min_trials}")
    chosen = resolve_backend(request, backend)
    use_cache = cache_enabled() if cache is None else cache
    cache_obj = get_cache() if use_cache else None

    full: Optional[OutcomeBatch] = None
    if cache_obj is not None:
        full = cache_obj.lookup(request, chosen.name)

    batches: List[OutcomeBatch] = []
    outcomes = OutcomeBatch.empty(request.n_agents, request.move_budget)
    batches_run = 0
    batches_cached = 0
    converged = False
    estimate, half_width = math.inf, math.inf
    start = 0
    while start < request.n_trials:
        stop = min(start + batch_size, request.n_trials)
        indices = range(start, stop)
        batch: Optional[OutcomeBatch] = None
        if full is not None:
            batch = full[start:stop]
            batches_cached += 1
        else:
            if cache_obj is not None:
                batch = cache_obj.lookup_shard(request, chosen.name, indices)
                if batch is not None:
                    batches_cached += 1
            if batch is None:
                batch_start = time.perf_counter()
                batch = chosen.run(request, trial_indices=list(indices))
                _count_execution(
                    request.algorithm.name,
                    chosen.name,
                    len(batch),
                    time.perf_counter() - batch_start,
                )
                _count_backend_runs(1)
                batches_run += 1
                if cache_obj is not None:
                    cache_obj.store_shard(request, chosen.name, indices, batch)
        batches.append(batch)
        outcomes = OutcomeBatch.concat(batches)
        start = stop
        estimate, half_width = _adaptive_estimate(metric, outcomes, confidence)
        if len(outcomes) >= min_trials and half_width <= target_half_width:
            converged = True
            break

    if (
        cache_obj is not None
        and full is None
        and len(outcomes) == request.n_trials
    ):
        # Budget fully consumed: publish the assembled entry so future
        # fixed-n lookups of the same request hit in one probe.
        cache_obj.store(request, chosen.name, outcomes)

    return AdaptiveRun(
        result=SimulationResult(
            request=request, backend=chosen.name, outcomes=outcomes
        ),
        metric=metric,
        target_half_width=target_half_width,
        confidence=confidence,
        estimate=estimate,
        half_width=half_width,
        trials_used=len(outcomes),
        max_trials=request.n_trials,
        batches_run=batches_run,
        batches_cached=batches_cached,
        converged=converged,
    )
