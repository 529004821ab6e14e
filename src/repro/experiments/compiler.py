"""Experiment compiler: declarative specs -> unique points -> one run.

Every experiment module exports ``spec(scale) -> ExperimentSpec``: the
experiment's simulation workload as data (:class:`SweepSpec` — request
factory x parameter grid x trial count x seed-key address) plus an
``analyze`` callback that turns executed rows into the experiment's
:class:`ExperimentResult` (tables, checks, notes).
:func:`execute_spec` is the *uncompiled* executor: it runs each sweep
through its :class:`~repro.sim.runner.Sweep`, then analyzes.

The compiled path does four things:

1. **bind** — :func:`compile_program` turns every (sweep, grid point)
   into its concrete :class:`~repro.sim.backends.base.SimulationRequest`
   under the sweep's seed addressing;
2. **dedup** — exact repeats (same request, same cache backend) collapse
   to one :class:`ProgramPoint`, and points the content-addressed cache
   already holds are marked and never re-executed;
3. **run** — :func:`execute_program` runs the remaining points
   through :meth:`repro.sim.jobs.JobManager.run_many`, one job per point
   with ``workers=1`` — the layout :class:`~repro.sim.runner.SweepJob`
   uses — so every outcome stream and cache entry is the uncompiled
   one by construction.  With one worker the points run one after
   another on the calling thread; with more, ``2 x workers`` of them
   are in flight on the shared process pool;
4. **finalize** — every experiment's ``analyze`` runs over
   :func:`execute_spec`, whose sweep lookups now hit the warmed cache
   with zero re-simulation, in a worker process per experiment when
   ``workers > 1`` (which is what spreads the bespoke, non-sweep
   analysis work across cores).

The compiled and uncompiled paths therefore produce byte-identical
``ExperimentResult`` sections; ``python -m repro.experiments --compile``
and ``repro-ants report`` front this module.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.experiments.base import ExperimentResult, check_scale
from repro.sim.backends.base import SimulationRequest
from repro.sim.backends.registry import resolve_backend
from repro.sim.cache import (
    cache_enabled,
    configure_cache,
    get_cache,
    request_fingerprint,
)
from repro.sim.jobs import get_manager
from repro.sim.runner import ExperimentRow, SimulationTrial, Sweep

__all__ = [
    "SweepSpec",
    "ExperimentSpec",
    "SpecContext",
    "execute_spec",
    "ProgramPoint",
    "CompileStats",
    "CompiledProgram",
    "compile_program",
    "execute_program",
    "ProgramReport",
]


# -- front end: declarative specs -----------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One declared sweep: a request factory over a parameter grid.

    The spec is seed-free and worker-free — execution binds the master
    seed and worker count, so the same spec can be executed uncompiled
    (:func:`execute_spec`) or bound by :func:`compile_program` with
    identical addressing: trial ``t`` of
    grid point ``i`` always draws from ``derive_seed(seed, *seed_keys,
    i, t)``.
    """

    name: str
    trial: SimulationTrial
    grid: Tuple[Mapping[str, object], ...]
    trials: int
    seed_keys: Tuple[int, ...] = ()

    def to_sweep(self, seed: int, workers: int = 1) -> Sweep:
        """The executable :class:`Sweep` this spec declares."""
        return Sweep(
            self.trial,
            list(self.grid),
            trials=self.trials,
            seed=seed,
            seed_keys=self.seed_keys,
            workers=workers,
        )

    def bound_requests(self, seed: int) -> List[SimulationRequest]:
        """Per-point requests under the sweep's seed addressing."""
        return self.to_sweep(seed).compile_requests()


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as data: declared sweeps plus an analysis pass.

    ``analyze`` receives a :class:`SpecContext` carrying the executed
    rows of every declared sweep (by name) and produces the experiment's
    :class:`ExperimentResult`.  Experiments whose measurement is not a
    grid sweep (bespoke numpy loops, colony simulators) declare no
    sweeps and do all their work inside ``analyze`` — they still gain a
    spec, which is what lets the compiled report run their analysis in
    parallel worker processes.
    """

    experiment_id: str
    sweeps: Tuple[SweepSpec, ...]
    analyze: Callable[["SpecContext"], ExperimentResult]

    def sweep(self, name: str) -> SweepSpec:
        for candidate in self.sweeps:
            if candidate.name == name:
                return candidate
        raise InvalidParameterError(
            f"{self.experiment_id} declares no sweep {name!r}"
        )


@dataclass
class SpecContext:
    """What an experiment's ``analyze`` pass sees at execution time."""

    scale: str
    seed: int
    workers: int = 1
    on_progress: Optional[Callable] = None
    _rows: Dict[str, List[ExperimentRow]] = field(default_factory=dict)

    def rows(self, name: str) -> List[ExperimentRow]:
        """The executed rows of one declared sweep, in grid order."""
        if name not in self._rows:
            raise InvalidParameterError(f"no executed sweep named {name!r}")
        return self._rows[name]


def execute_spec(
    spec: ExperimentSpec,
    scale: str,
    seed: int,
    workers: int = 1,
    on_progress: Optional[Callable] = None,
) -> ExperimentResult:
    """The uncompiled executor: run declared sweeps, then analyze.

    Each sweep executes through its :class:`Sweep`, in declaration
    order.  After a compiled program has warmed the result cache, the same
    lookups are served without simulating — which is how the compiled
    path reuses this function for finalization.
    """
    check_scale(scale)
    context = SpecContext(
        scale=scale, seed=seed, workers=workers, on_progress=on_progress
    )
    for sweep_spec in spec.sweeps:
        rows = sweep_spec.to_sweep(seed, workers).run(progress=on_progress)
        context._rows[sweep_spec.name] = rows
    return spec.analyze(context)


# -- bind and dedup -------------------------------------------------------


@dataclass
class ProgramPoint:
    """One unique simulation the program must provide.

    ``backend`` is the declaring sweep's backend name, submitted as is;
    ``cache_backend`` is the cache namespace it resolves to.
    """

    request: SimulationRequest
    backend: str
    cache_backend: str
    cache_satisfied: bool = False

    @property
    def family(self) -> str:
        return self.request.algorithm.name


@dataclass(frozen=True)
class CompileStats:
    """What binding and dedup did to the declared workload."""

    declared_points: int
    unique_points: int
    cache_satisfied: int
    trials_declared: int
    trials_to_run: int
    points_by_family: Dict[str, int]

    @property
    def to_run(self) -> int:
        return self.unique_points - self.cache_satisfied

    def summary(self) -> str:
        families = ", ".join(
            f"{family}:{count}"
            for family, count in sorted(self.points_by_family.items())
        )
        return (
            f"{self.declared_points} declared points -> "
            f"{self.unique_points} unique -> {self.cache_satisfied} cached "
            f"-> {self.to_run} to run "
            f"({self.trials_to_run}/{self.trials_declared} trials; {families})"
        )


@dataclass
class CompiledProgram:
    """The bound, dedup'd points of a set of specs, plus provenance."""

    scale: str
    seed: int
    specs: List[ExperimentSpec]
    points: List[ProgramPoint]
    stats: CompileStats

    def points_to_run(self) -> List[ProgramPoint]:
        return [point for point in self.points if not point.cache_satisfied]


def compile_program(
    specs: Sequence[ExperimentSpec], scale: str, seed: int
) -> CompiledProgram:
    """Bind every declared point to its request; drop repeats and hits.

    A point repeats another when its request fingerprint (trial count
    included) and cache backend are equal, so the two would read and
    write the same cache entry.  Points the cache already satisfies are
    marked ``cache_satisfied`` and will not be executed.
    """
    check_scale(scale)
    cache = get_cache() if cache_enabled() else None
    unique: Dict[Tuple[str, str], ProgramPoint] = {}
    declared = 0
    trials_declared = 0
    for spec in specs:
        for sweep_spec in spec.sweeps:
            if sweep_spec.trial.cache is False:
                # A sweep that opts out of the cache has no channel to
                # receive pre-warmed results; leave it to finalization.
                continue
            backend = sweep_spec.trial.backend
            for request in sweep_spec.bound_requests(seed):
                declared += 1
                trials_declared += request.n_trials
                cache_backend = resolve_backend(request, backend).cache_name()
                key = (request_fingerprint(request), cache_backend)
                if key not in unique:
                    unique[key] = ProgramPoint(request, backend, cache_backend)
    points = list(unique.values())
    by_family: Dict[str, int] = {}
    trials_to_run = 0
    for point in points:
        if cache is not None:
            point.cache_satisfied = (
                cache.lookup(point.request, point.cache_backend) is not None
            )
        if point.cache_satisfied:
            continue
        by_family[point.family] = by_family.get(point.family, 0) + 1
        trials_to_run += point.request.n_trials
    stats = CompileStats(
        declared_points=declared,
        unique_points=len(points),
        cache_satisfied=sum(point.cache_satisfied for point in points),
        trials_declared=trials_declared,
        trials_to_run=trials_to_run,
        points_by_family=by_family,
    )
    return CompiledProgram(
        scale=scale, seed=seed, specs=list(specs), points=points, stats=stats
    )


# -- run and finalize -----------------------------------------------------


@dataclass
class ProgramReport:
    """What one compiled program execution produced."""

    results: Dict[str, ExperimentResult]
    stats: CompileStats
    points_executed: int
    warm_seconds: float
    finalize_seconds: float


def _finalize_experiment(
    experiment_id: str, scale: str, seed: int, cache_dir: Optional[str]
) -> ExperimentResult:
    """Worker-process entry: one experiment's finalization pass.

    Re-binds the worker's process-global cache to the coordinator's
    directory so the warmed disk entries are visible, then executes the
    experiment's spec — sweeps replay from cache; bespoke analysis runs
    here, which is what the compiled path parallelizes across workers.
    """
    from repro.experiments import SPEC_REGISTRY

    if cache_dir is not None:
        cache = get_cache()
        if str(cache.directory) != cache_dir:
            configure_cache(directory=cache_dir)
    spec = SPEC_REGISTRY[experiment_id](scale)
    return execute_spec(spec, scale, seed)


def execute_program(
    program: CompiledProgram,
    workers: int = 1,
    on_progress: Optional[Callable[[str], None]] = None,
) -> ProgramReport:
    """Run the program's uncached points, then finalize every experiment."""
    say = on_progress or (lambda message: None)
    cache = get_cache() if cache_enabled() else None
    started = time.perf_counter()
    executed = 0

    if cache is not None:
        to_run = program.points_to_run()
        if to_run:
            say(
                f"simulating {len(to_run)} points "
                f"({program.stats.trials_to_run} trials) "
                f"across {workers} worker(s)"
            )
        # Each point goes in under its sweep's own backend name, as
        # SweepJob submits it, so run_many is called once per name.
        by_backend: Dict[str, List[SimulationRequest]] = {}
        for point in to_run:
            by_backend.setdefault(point.backend, []).append(point.request)
        manager = get_manager()
        for backend, requests in by_backend.items():
            manager.run_many(
                requests,
                backend=backend,
                run_in_pool=workers > 1,
                pool_size=workers,
                max_in_flight=2 * workers,
            )
        executed = len(to_run)
    warm_seconds = time.perf_counter() - started

    started = time.perf_counter()
    results: Dict[str, ExperimentResult] = {}
    ordered = sorted(program.specs, key=lambda spec: spec.experiment_id)
    cache_dir = str(cache.directory) if cache is not None else None
    if workers > 1 and len(ordered) > 1:
        say(f"finalizing {len(ordered)} experiments in {workers} processes")
        with ProcessPoolExecutor(max_workers=min(workers, len(ordered))) as pool:
            futures = {
                spec.experiment_id: pool.submit(
                    _finalize_experiment,
                    spec.experiment_id,
                    program.scale,
                    program.seed,
                    cache_dir,
                )
                for spec in ordered
            }
            for experiment_id, future in futures.items():
                results[experiment_id] = future.result()
    else:
        for spec in ordered:
            results[spec.experiment_id] = execute_spec(
                spec, program.scale, program.seed
            )
    finalize_seconds = time.perf_counter() - started
    return ProgramReport(
        results=results,
        stats=program.stats,
        points_executed=executed,
        warm_seconds=warm_seconds,
        finalize_seconds=finalize_seconds,
    )
