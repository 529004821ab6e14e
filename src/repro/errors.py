"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidParameterError(ReproError, ValueError):
    """A caller supplied a parameter outside its documented domain.

    Raised eagerly at construction time (e.g. a non-positive distance
    ``D``, a probability outside ``(0, 1]``, or an automaton whose rows
    do not sum to one) so that misuse fails loudly instead of producing
    silently wrong simulation results.
    """


class JobCancelledError(ReproError, RuntimeError):
    """An asynchronous simulation job was cancelled before completing.

    Raised by :meth:`repro.sim.jobs.SimulationJob.result` (and the
    sweep handle's equivalent) when the caller asks for the result of a
    job whose execution was cancelled.  Shards that completed before the
    cancellation remain in the result cache, so resubmitting the same
    request resumes instead of restarting.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A simulation job ran past its request-level deadline.

    Raised by the job layer when ``SimulationRequest.deadline_seconds``
    elapses before the job settles.  Shards that completed before the
    deadline are already written through to the result cache, so
    resubmitting the same request (with or without a deadline) resumes
    from them instead of restarting.
    """


class TransientFaultError(ReproError, RuntimeError):
    """An injected (or genuinely transient) retryable execution fault.

    The shard retry machinery in :mod:`repro.sim.jobs` treats this
    class — alongside broken process pools and OS-level errors — as
    safe to retry with backoff, because shard outcomes are a pure
    function of ``(request, backend, trial range)``.
    """


class AnalysisError(ReproError, RuntimeError):
    """A Markov-chain analysis could not be completed.

    For example: requesting the stationary distribution of a class that
    is not recurrent, or the period of an empty state set.
    """
