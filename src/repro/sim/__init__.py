"""Simulation service, engines, backends, metrics and statistics.

The uniform entry point is :func:`repro.sim.simulate`: build a
:class:`SimulationRequest` (algorithm spec + colony + world + budgets +
seed stream) and let the backend registry dispatch it:

* ``reference`` (:mod:`repro.sim.engine`) — the faithful, step-by-step
  synchronous engine driving agent processes (or automata); tracks
  ``M_steps`` and per-agent outcomes, executes arbitrary automata for
  the lower-bound experiments.
* ``batched`` (:mod:`repro.sim.backends.batched`) — many colonies and
  many trials in one pass of the NumPy kernel core
  (:mod:`repro.sim.kernels`); the high-throughput batch path.

In front of the backends sits a content-addressed result cache
(:mod:`repro.sim.cache`): repeated requests are served from memory or
``~/.cache/repro-ants/`` without resimulation, keyed by (request hash,
backend, code version) — with per-shard entries so interrupted jobs
resume, and an LRU-prunable disk layer.

Execution itself lives in the job layer (:mod:`repro.sim.jobs`):
:func:`simulate` is a blocking view over
:meth:`~repro.sim.jobs.JobManager.submit`, and :func:`simulate_async`
returns the :class:`~repro.sim.jobs.SimulationJob` handle directly —
states, per-shard progress, incremental result streaming, and
cancellation with cache-backed resumption.

Shared result records live in :mod:`repro.sim.metrics`; deterministic
seeding utilities in :mod:`repro.sim.rng`; estimators and scaling fits
in :mod:`repro.sim.stats`; sweep orchestration (with parallel
``workers=N`` sharding, grid-point -> batched-call compilation via
:class:`SimulationTrial`, and async :class:`SweepJob` handles) in
:mod:`repro.sim.runner`.
"""

from repro.sim.backends import (
    AlgorithmSpec,
    BackendError,
    SimulationBackend,
    SimulationRequest,
    SimulationResult,
    backend_names,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.sim.cache import (
    CacheInfo,
    PruneResult,
    SimulationCache,
    cache_enabled,
    configure_cache,
    get_cache,
    request_fingerprint,
)
from repro.sim.engine import SearchEngine, EngineConfig
from repro.sim.jobs import (
    JobManager,
    JobProgress,
    JobState,
    ShardResult,
    SimulationJob,
    get_manager,
)
from repro.sim.metrics import (
    AgentOutcome,
    FastRunStats,
    OutcomeBatch,
    SearchOutcome,
    speedup,
)
from repro.sim.rng import generator_from, spawn_generators
from repro.sim.runner import (
    ExperimentRow,
    SimulationTrial,
    Sweep,
    SweepJob,
    SweepProgress,
    censored_moves,
    rows_to_markdown,
)
from repro.sim.selector import SimulationPlan, plan_request
from repro.sim.service import (
    AdaptiveRun,
    backend_run_count,
    simulate,
    simulate_adaptive,
    simulate_async,
)
from repro.sim.stats import (
    Estimate,
    bootstrap_mean_ci,
    fit_loglog_slope,
    ks_statistic,
    ks_two_sample_threshold,
    mean_ci,
    summarize,
)
from repro.sim.trace import Execution, TraceRecorder

__all__ = [
    "AlgorithmSpec",
    "BackendError",
    "SimulationBackend",
    "SimulationRequest",
    "SimulationResult",
    "backend_names",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "simulate",
    "simulate_async",
    "simulate_adaptive",
    "backend_run_count",
    "AdaptiveRun",
    "SimulationPlan",
    "plan_request",
    "JobManager",
    "JobProgress",
    "JobState",
    "ShardResult",
    "SimulationJob",
    "get_manager",
    "CacheInfo",
    "PruneResult",
    "SimulationCache",
    "cache_enabled",
    "configure_cache",
    "get_cache",
    "request_fingerprint",
    "SearchEngine",
    "EngineConfig",
    "AgentOutcome",
    "FastRunStats",
    "OutcomeBatch",
    "SearchOutcome",
    "speedup",
    "generator_from",
    "spawn_generators",
    "ExperimentRow",
    "SimulationTrial",
    "Sweep",
    "SweepJob",
    "SweepProgress",
    "censored_moves",
    "rows_to_markdown",
    "Estimate",
    "bootstrap_mean_ci",
    "fit_loglog_slope",
    "ks_statistic",
    "ks_two_sample_threshold",
    "mean_ci",
    "summarize",
    "Execution",
    "TraceRecorder",
]
