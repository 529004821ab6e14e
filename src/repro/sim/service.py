"""The simulation service facade: ``repro.sim.simulate``.

Every caller that wants the colony metric — CLI, experiments,
benchmarks, examples — funnels through :func:`simulate`: build a
:class:`~repro.sim.backends.base.SimulationRequest`, pick a backend (or
leave ``"auto"``), optionally shard the trial batch across worker
processes.  Sharding preserves the per-trial seed contract
(``derive_seed(seed, *seed_keys, trial)``), so for the per-trial
backends the outcomes are bit-identical whatever ``workers`` is; the
batched backend re-anchors its pooled stream per shard and is equal in
distribution instead.

The facade owns no execution logic: the resolve -> cache -> shard ->
run -> store pipeline lives in :mod:`repro.sim.jobs`, and
:func:`simulate` is :meth:`~repro.sim.jobs.JobManager.run` — the job
driven on the calling thread, with no ledger record.
:func:`simulate_async` submits the same job to a driver thread and
returns the :class:`~repro.sim.jobs.SimulationJob` handle for progress
polling, incremental shard streaming, and cancellation.  Both views
share the content-addressed result cache (full-request and per-shard
entries), and :func:`backend_run_count` still counts the backend
executions this process actually performed — how the tests prove
cached re-runs and resumed jobs simulate nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import span
from repro.sim.backends.base import SimulationRequest, SimulationResult
from repro.sim.backends.registry import AUTO
from repro.sim.jobs import (
    AdaptiveRun,
    SimulationJob,
    backend_run_count,
    get_manager,
    simulate_adaptive,
    simulate_async,
)

__all__ = [
    "simulate",
    "simulate_async",
    "simulate_adaptive",
    "backend_run_count",
    "AdaptiveRun",
    "SimulationJob",
]


def simulate(
    request: SimulationRequest,
    backend: str = AUTO,
    workers: int = 1,
    cache: Optional[bool] = None,
) -> SimulationResult:
    """Execute a simulation request on the best (or named) backend.

    A thin blocking view over the job layer: runs the job on the
    calling thread through the process-wide
    :class:`~repro.sim.jobs.JobManager`.  Use :func:`simulate_async`
    for the non-blocking handle.

    Parameters
    ----------
    request:
        The job: algorithm spec, colony size, target, budgets, trials,
        seed stream.
    backend:
        A registered backend name, or ``"auto"`` to pick the highest
        priority backend supporting the request.
    workers:
        When > 1 and the request has several trials, shard the trial
        range across the manager's worker process pool.
    cache:
        ``True``/``False`` forces the result cache on/off for this
        call; ``None`` (default) follows the process-wide setting
        (:func:`repro.sim.cache.configure_cache`, default on).  The
        cache key is ``(request hash, resolved backend, code
        version)`` — ``workers`` is an execution detail and does not
        participate.
    """
    # The "simulate" span is the root of a local trace (or a child of
    # whatever ambient span the caller holds) and the job span's parent.
    with span(
        "simulate",
        algorithm=request.algorithm.name,
        n_trials=request.n_trials,
    ):
        return get_manager().run(
            request, backend=backend, workers=workers, cache=cache
        )
