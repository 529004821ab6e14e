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
3. **run** — with one worker, :func:`execute_program` runs the
   remaining points one after another on the calling thread, one
   :meth:`repro.sim.jobs.JobManager.run` job per point with
   ``workers=1`` — the layout :class:`~repro.sim.runner.SweepJob` uses
   — so every outcome stream and cache entry is the uncompiled one by
   construction.  With more, this step and the next are one: a single
   process pool of ``min(workers, experiments)`` workers runs each
   experiment's :func:`execute_spec` whole — its declared sweeps and
   its bespoke analysis — taking the experiments slowest first
   (:data:`SLOWEST_FIRST`), and the calling process simulates nothing;
4. **finalize** — with one worker, every experiment's ``analyze`` runs
   over :func:`execute_spec`, whose sweep lookups now hit the warmed
   cache with zero re-simulation.

Either way the results come back in id order and render alike.  From
an empty cache on a 2-core host the smoke report took 1.99 s through
``repro-ants report --workers 1`` and 1.45 s at 2 workers (paper scale:
18.0 s and 8.9 s).  The pool trades memory for time: each worker
process holds its own interpreter, arrays and cache entries.

The compiled and uncompiled paths therefore produce byte-identical
``ExperimentResult`` sections; ``python -m repro.experiments --compile``
and ``repro-ants report`` front this module.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
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
    "SLOWEST_FIRST",
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


#: Experiment ids, slowest first: the median ``run()`` time of each from
#: an empty cache at smoke scale, 3 rounds on a 2-core host (E13 0.74 s,
#: E15 0.20 s, E12 0.10 s, ..., E16 0.002 s, of 1.56 s in all).  The
#: pool hands the next experiment to the first free worker, so starting
#: E13 first keeps it off the end of the run.  Ids not listed go last.
SLOWEST_FIRST = (
    "E13", "E15", "E12", "E04", "E10", "E03", "E09", "E14",
    "E06", "E11", "E07", "E02", "E05", "E01", "E08", "E16",
)


@dataclass
class ProgramReport:
    """What one compiled program execution produced.

    ``points_executed`` counts the points the program had to run;
    ``warm_seconds`` is the time the calling process spent simulating
    them (zero when the pool's workers did), ``finalize_seconds`` the
    time spent producing the experiments' results after that.
    """

    results: Dict[str, ExperimentResult]
    stats: CompileStats
    points_executed: int
    warm_seconds: float
    finalize_seconds: float


def _run_experiment(
    factory: Callable[[str], ExperimentSpec],
    scale: str,
    seed: int,
    cache_dir: Optional[str],
) -> ExperimentResult:
    """Worker-process entry: one experiment's :func:`execute_spec`.

    Re-binds the worker's process-global cache to the coordinator's
    directory first, so the worker reads and writes the entries the
    coordinator would, then builds the spec and runs its sweeps and its
    analysis.
    """
    if cache_dir is not None and str(get_cache().directory) != cache_dir:
        configure_cache(directory=cache_dir)
    return execute_spec(factory(scale), scale, seed)


def _execute_pooled(
    program: CompiledProgram, workers: int, say: Callable[[str], None]
) -> Dict[str, ExperimentResult]:
    """Every experiment's :func:`execute_spec` in one process pool.

    Experiments go in slowest first; the first failure cancels the ones
    not yet started, waits for the running ones, and re-raises, so no
    worker outlives the call.
    """
    from repro.experiments import SPEC_REGISTRY

    cache_dir = str(get_cache().directory) if cache_enabled() else None
    rank = {key: index for index, key in enumerate(SLOWEST_FIRST)}
    order = sorted(
        program.specs,
        key=lambda spec: (rank.get(spec.experiment_id, len(rank)), spec.experiment_id),
    )
    processes = min(workers, len(order))
    say(f"running {len(order)} experiments in {processes} processes, slowest first")
    results: Dict[str, ExperimentResult] = {}
    # The platform's default start method (fork on Linux): `repro-ants
    # report` has only its main thread here, and spawned workers, which
    # import the package afresh, made the smoke report 0.43 s slower
    # (1.26 -> 1.70 s, 8 interleaved pairs on a 2-core host).
    pool = ProcessPoolExecutor(max_workers=processes)
    try:
        futures = {
            pool.submit(
                _run_experiment,
                SPEC_REGISTRY[spec.experiment_id],
                program.scale,
                program.seed,
                cache_dir,
            ): spec.experiment_id
            for spec in order
        }
        for future in as_completed(futures):
            results[futures[future]] = future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def execute_program(
    program: CompiledProgram,
    workers: int = 1,
    on_progress: Optional[Callable[[str], None]] = None,
) -> ProgramReport:
    """Run every experiment of the program; results in id order.

    One worker: the uncached points run one job each on the calling
    thread, then every experiment is finalized here.  More: one pool of
    ``min(workers, experiments)`` processes runs each experiment's
    :func:`execute_spec` whole, and the calling process simulates
    nothing.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    say = on_progress or (lambda message: None)
    to_run = program.points_to_run()
    if workers > 1 and program.specs:
        started = time.perf_counter()
        pooled = _execute_pooled(program, workers, say)
        return ProgramReport(
            results={key: pooled[key] for key in sorted(pooled)},
            stats=program.stats,
            points_executed=len(to_run),
            warm_seconds=0.0,
            finalize_seconds=time.perf_counter() - started,
        )

    started = time.perf_counter()
    executed = 0
    if cache_enabled():
        if to_run:
            say(
                f"simulating {len(to_run)} points "
                f"({program.stats.trials_to_run} trials)"
            )
        # Each point goes in under its sweep's own backend name, one
        # job on this thread, as SweepJob submits it.
        manager = get_manager()
        for point in to_run:
            manager.run(point.request, backend=point.backend)
        executed = len(to_run)
    warm_seconds = time.perf_counter() - started

    started = time.perf_counter()
    results = {
        spec.experiment_id: execute_spec(spec, program.scale, program.seed)
        for spec in sorted(program.specs, key=lambda spec: spec.experiment_id)
    }
    return ProgramReport(
        results=results,
        stats=program.stats,
        points_executed=executed,
        warm_seconds=warm_seconds,
        finalize_seconds=time.perf_counter() - started,
    )
