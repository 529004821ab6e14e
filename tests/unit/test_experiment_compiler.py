"""Unit tests for the experiment compiler IR and its satellites.

Covers the invariants :mod:`repro.experiments.compiler` promises:

* **Dedup** — a point declared twice (within or across experiments)
  runs exactly once, while points differing in seed address or trial
  count stay apart; points already satisfied by the content-addressed
  cache are never re-executed, proven with
  :func:`repro.sim.jobs.backend_run_count`;
* **One worker** — the uncached points run one job each on the
  calling thread and write no ledger record;
* **The pool** — at ``workers > 1`` each experiment runs whole in one
  process pool, slowest first, the job layer's own pool is never
  created, and a failing experiment raises with no worker left behind;
* **CLI surface** — ``repro-ants experiment --all`` exit semantics and
  the single-sourced default seed.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro.sim.cache as cache_module
from repro.errors import InvalidParameterError
from repro.experiments import REGISTRY, SPEC_REGISTRY
from repro.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.experiments import compiler
from repro.experiments.compiler import (
    SLOWEST_FIRST,
    ExperimentSpec,
    SpecContext,
    SweepSpec,
    compile_program,
    execute_program,
    execute_spec,
)
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.backends.registry import get_backend
from repro.sim.cache import configure_cache, get_cache
from repro.sim.jobs import JobManager, backend_run_count, ledger_dir
from repro.sim.runner import SimulationTrial

SEED = 20140507


@pytest.fixture
def fresh_cache(tmp_path):
    """A private cache for one test."""
    cache = configure_cache(directory=tmp_path)
    yield cache
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


def _factory(params):
    distance = int(params["D"])
    return SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(distance),
        n_agents=2,
        target=(distance, distance),
        move_budget=40_000,
    )


def _spec(
    experiment_id,
    trials,
    backend="reference",
    seed_keys=(1,),
    grid=({"D": 8},),
    sweep_name="s",
):
    """A synthetic one-sweep spec for exercising the IR."""

    def analyze(context: SpecContext) -> ExperimentResult:
        rows = context.rows(sweep_name)
        return ExperimentResult(
            experiment_id=experiment_id,
            title="synthetic",
            paper_claim="n/a",
            table=repr([row.estimate for row in rows]),
            checks={"ran": len(rows) == len(grid)},
        )

    return ExperimentSpec(
        experiment_id=experiment_id,
        sweeps=(
            SweepSpec(
                name=sweep_name,
                trial=SimulationTrial(_factory, backend=backend),
                grid=tuple(grid),
                trials=trials,
                seed_keys=tuple(seed_keys),
            ),
        ),
        analyze=analyze,
    )


class TestCanonicalMerge:
    """Only exact repeats collapse: same request, same cache backend."""

    def test_point_declared_twice_runs_exactly_once(self, fresh_cache):
        specs = [_spec("T01", trials=4), _spec("T02", trials=4)]
        program = compile_program(specs, "smoke", SEED)
        assert program.stats.declared_points == 2
        assert program.stats.unique_points == 1
        before = backend_run_count()
        report = execute_program(program)
        assert backend_run_count() == before + 1
        assert report.points_executed == 1
        assert report.results["T01"].table == report.results["T02"].table

    def test_distinct_seed_addresses_never_merge(self, fresh_cache):
        # Same factory and grid, different seed keys: the bound requests
        # draw different streams, so merging them would corrupt tables.
        program = compile_program(
            [_spec("T01", trials=4), _spec("T02", trials=4, seed_keys=(2,))],
            "smoke",
            SEED,
        )
        assert program.stats.unique_points == 2

    def test_stream_anchored_backends_merge_only_exact_repeats(
        self, fresh_cache
    ):
        equal = compile_program(
            [
                _spec("T01", trials=4, backend="batched"),
                _spec("T02", trials=4, backend="batched"),
            ],
            "smoke",
            SEED,
        )
        assert equal.stats.unique_points == 1
        unequal = compile_program(
            [
                _spec("T01", trials=4, backend="batched"),
                _spec("T02", trials=9, backend="batched"),
            ],
            "smoke",
            SEED,
        )
        assert unequal.stats.unique_points == 2

    def test_uncached_sweeps_are_left_to_finalization(self, fresh_cache):
        spec = _spec("T01", trials=4)
        opted_out = ExperimentSpec(
            experiment_id="T01",
            sweeps=(
                SweepSpec(
                    name="s",
                    trial=SimulationTrial(_factory, cache=False),
                    grid=spec.sweeps[0].grid,
                    trials=4,
                    seed_keys=(1,),
                ),
            ),
            analyze=spec.analyze,
        )
        program = compile_program([opted_out], "smoke", SEED)
        assert program.stats.declared_points == 0
        assert program.points == []


class TestCacheDedup:
    def test_cache_satisfied_points_are_never_rerun(self, fresh_cache):
        specs = [_spec("T01", trials=4)]
        first = compile_program(specs, "smoke", SEED)
        assert first.stats.cache_satisfied == 0
        before = backend_run_count()
        report = execute_program(first)
        assert backend_run_count() > before
        assert report.points_executed == 1

        second = compile_program(specs, "smoke", SEED)
        assert second.stats.cache_satisfied == second.stats.unique_points == 1
        assert second.stats.to_run == 0
        before = backend_run_count()
        replay = execute_program(second)
        assert backend_run_count() == before
        assert replay.points_executed == 0
        assert replay.results["T01"].checks == {"ran": True}


class TestInProcessLoop:
    def test_points_run_on_the_calling_thread_with_no_record(
        self, fresh_cache, monkeypatch
    ):
        backend = get_backend("reference")
        original = backend.run
        threads = []

        def spy(request, trial_indices=None):
            threads.append(threading.get_ident())
            return original(request, trial_indices=trial_indices)

        monkeypatch.setattr(backend, "run", spy)
        program = compile_program(
            [_spec("T01", trials=3, grid=({"D": 8}, {"D": 12}, {"D": 16}))],
            "smoke",
            SEED,
        )
        report = execute_program(program, workers=1)
        assert report.points_executed == 3
        assert report.results["T01"].checks == {"ran": True}
        # Finalization replays the three points from the cache.
        assert threads == [threading.get_ident()] * 3
        assert list(ledger_dir().glob("*.json")) == []


def _broken_spec(scale):
    """A registered experiment whose analysis raises (in a worker)."""

    def analyze(context):
        raise RuntimeError("broken experiment")

    return ExperimentSpec(experiment_id="E01", sweeps=(), analyze=analyze)


class TestPool:
    """``workers > 1``: one pool of whole experiments, slowest first."""

    KEYS = ("E01", "E07", "E09", "E16")

    def test_pool_matches_one_worker_without_the_job_pool(
        self, fresh_cache, monkeypatch, tmp_path_factory
    ):
        specs = [SPEC_REGISTRY[key]("smoke") for key in self.KEYS]
        one = execute_program(compile_program(specs, "smoke", SEED))

        def no_job_pool(*args, **kwargs):
            raise AssertionError("the job layer's pool was created")

        monkeypatch.setattr(JobManager, "_ensure_pool", no_job_pool)
        configure_cache(directory=tmp_path_factory.mktemp("pool"))
        program = compile_program(specs, "smoke", SEED)
        before = backend_run_count()
        pooled = execute_program(program, workers=2)
        assert backend_run_count() == before  # the parent simulated nothing
        assert list(pooled.results) == sorted(self.KEYS)
        assert pooled.results == one.results
        assert pooled.points_executed == len(program.points_to_run()) > 0
        assert pooled.warm_seconds == 0.0

    def test_experiments_are_submitted_slowest_first(
        self, fresh_cache, monkeypatch
    ):
        submitted = []

        class RecordingPool(compiler.ProcessPoolExecutor):
            def submit(self, fn, factory, *args):
                submitted.append(factory("smoke").experiment_id)
                return super().submit(fn, factory, *args)

        monkeypatch.setattr(compiler, "ProcessPoolExecutor", RecordingPool)
        keys = ("E01", "E08", "E15", "E16")
        specs = [SPEC_REGISTRY[key]("smoke") for key in keys]
        report = execute_program(
            compile_program(specs, "smoke", SEED), workers=2
        )
        assert submitted == ["E15", "E01", "E08", "E16"]
        assert list(report.results) == list(keys)

    def test_slowest_first_orders_every_experiment_once(self):
        assert sorted(SLOWEST_FIRST) == sorted(REGISTRY)
        assert SLOWEST_FIRST[0] == "E13"

    def test_failing_experiment_raises_and_leaves_no_worker(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        import repro.experiments as experiments
        from repro.cli import main

        monkeypatch.setitem(experiments.SPEC_REGISTRY, "E01", _broken_spec)
        before = set(multiprocessing.active_children())
        program = compile_program(
            [_broken_spec("smoke"), SPEC_REGISTRY["E16"]("smoke")],
            "smoke",
            SEED,
        )
        with pytest.raises(RuntimeError, match="broken experiment"):
            execute_program(program, workers=2)
        assert set(multiprocessing.active_children()) <= before
        # Out of main(), the exception ends the process with status 1.
        with pytest.raises(RuntimeError, match="broken experiment"):
            main([
                "report", "--workers", "2", "--only", "E01,E16",
                "--output", str(tmp_path / "report.md"),
            ])
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_are_rejected(self, workers, capsys):
        from repro.cli import main
        from repro.experiments.__main__ import generate_report
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(InvalidParameterError):
            execute_program(
                compile_program([], "smoke", SEED), workers=workers
            )
        with pytest.raises(InvalidParameterError):
            generate_report(only="E16", workers=workers, echo=print)
        assert main(["report", "--workers", str(workers)]) == 2
        with pytest.raises(SystemExit) as exited:
            experiments_main(["--workers", str(workers)])
        assert exited.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestSpecContract:
    def test_unknown_sweep_rows_raise(self):
        context = SpecContext(scale="smoke", seed=SEED)
        with pytest.raises(InvalidParameterError):
            context.rows("nope")

    def test_unknown_sweep_lookup_raises(self):
        spec = _spec("T01", trials=4)
        with pytest.raises(InvalidParameterError):
            spec.sweep("nope")

    def test_invalid_scale_rejected_everywhere(self):
        spec = _spec("T01", trials=4)
        with pytest.raises(InvalidParameterError):
            execute_spec(spec, "huge", SEED)
        with pytest.raises(InvalidParameterError):
            compile_program([spec], "huge", SEED)

    def test_every_experiment_exports_a_matching_spec(self):
        assert set(SPEC_REGISTRY) == set(REGISTRY)
        for key, factory in SPEC_REGISTRY.items():
            spec = factory("smoke")
            assert spec.experiment_id == key
            assert callable(spec.analyze)
            for sweep in spec.sweeps:
                assert sweep.trials >= 1
                assert len(sweep.grid) >= 1

    def test_declared_sweeps_pin_no_backend(self):
        """Every declared sweep resolves through ``auto``, which sends
        each of the covered families to the batched kernels."""
        from repro.sim.backends import resolve_backend

        for factory in SPEC_REGISTRY.values():
            for sweep in factory("smoke").sweeps:
                assert sweep.trial.backend == "auto"
        parity = SPEC_REGISTRY["E07"]("smoke").sweep("parity")
        for point in parity.grid:
            request = parity.trial.factory(point)
            assert resolve_backend(request).name == "batched"


class TestCliSurface:
    def test_seed_default_is_single_sourced(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["experiment", "E01"]).seed == DEFAULT_SEED
        assert parser.parse_args(["report"]).seed == DEFAULT_SEED

    def test_experiment_requires_id_or_all(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 2

    def _fake_registry(self, passed):
        def fake_run(scale="smoke", seed=DEFAULT_SEED):
            return ExperimentResult(
                experiment_id="T01",
                title="synthetic",
                paper_claim="n/a",
                table="",
                checks={"check": passed},
            )

        return {"T01": fake_run}

    def test_experiment_all_exit_codes(self, monkeypatch, capsys):
        import repro.experiments as experiments
        from repro.cli import main

        monkeypatch.setattr(
            experiments, "REGISTRY", self._fake_registry(True)
        )
        assert main(["experiment", "--all"]) == 0
        assert "[T01] synthetic — ok" in capsys.readouterr().out

        monkeypatch.setattr(
            experiments, "REGISTRY", self._fake_registry(False)
        )
        assert main(["experiment", "--all"]) == 1
        out = capsys.readouterr().out
        assert "CHECK FAILURES" in out
        assert "FAIL: check" in out
