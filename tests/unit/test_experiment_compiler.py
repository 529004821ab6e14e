"""Unit tests for the experiment compiler IR and its satellites.

Covers the invariants :mod:`repro.experiments.compiler` promises:

* **Dedup** — a point declared twice (within or across experiments)
  runs exactly once, while points differing in seed address or trial
  count stay apart; points already satisfied by the content-addressed
  cache are never re-executed, proven with
  :func:`repro.sim.jobs.backend_run_count`;
* **CLI surface** — ``repro-ants experiment --all`` exit semantics and
  the single-sourced default seed.
"""

from __future__ import annotations

import pytest

import repro.sim.cache as cache_module
from repro.errors import InvalidParameterError
from repro.experiments import REGISTRY, SPEC_REGISTRY
from repro.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.experiments.compiler import (
    ExperimentSpec,
    SpecContext,
    SweepSpec,
    compile_program,
    execute_program,
    execute_spec,
)
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.cache import configure_cache, get_cache
from repro.sim.jobs import backend_run_count
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
