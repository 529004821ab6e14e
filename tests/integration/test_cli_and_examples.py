"""Integration tests: CLI subcommands and the example scripts."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestCli:
    def test_run_finds_target(self, capsys):
        code = main(
            [
                "run", "--algorithm", "nonuniform", "--distance", "16",
                "--agents", "4", "--budget", "5000000", "--seed", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "found     : yes" in captured
        assert "chi" in captured

    def test_run_with_explicit_target(self, capsys):
        code = main(
            [
                "run", "--algorithm", "spiral", "--distance", "8",
                "--agents", "1", "--target", "3", "-2", "--seed", "1",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "(3, -2)" in captured

    def test_run_budget_exhaustion_exit_code(self, capsys):
        code = main(
            [
                "run", "--algorithm", "random-walk", "--distance", "64",
                "--agents", "1", "--budget", "50", "--seed", "1",
            ]
        )
        assert code == 1
        assert "no within budget" in capsys.readouterr().out

    def test_certify(self, capsys):
        code = main(
            ["certify", "--family", "uniform-walk", "--distance", "64"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "chi = 4.000" in captured
        assert "adversarial target" in captured

    def test_coverage(self, capsys):
        code = main(
            [
                "coverage", "--family", "biased-walk", "--distance", "16",
                "--agents", "4", "--rounds", "200",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "cells visited" in captured

    def test_experiment_subcommand(self, capsys):
        code = main(["experiment", "e04"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "### E04" in captured

    def test_experiment_unknown_id(self, capsys):
        code = main(["experiment", "E99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_algorithm_reports_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "teleport"])

    def test_run_with_explicit_backend_and_trials(self, capsys):
        code = main(
            [
                "run", "--algorithm", "algorithm1", "--distance", "16",
                "--agents", "4", "--budget", "5000000", "--seed", "3",
                "--backend", "batched", "--trials", "20",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "backend   : batched" in captured
        assert "trials    : 20" in captured

    def test_run_workers_shard(self, capsys):
        code = main(
            [
                "run", "--algorithm", "nonuniform", "--distance", "16",
                "--budget", "5000000", "--trials", "4", "--workers", "2",
                "--backend", "batched",
            ]
        )
        assert code == 0
        assert "find rate" in capsys.readouterr().out

    def test_run_plan_prints_and_executes_the_plan(self, capsys):
        code = main(
            [
                "run", "--algorithm", "nonuniform", "--distance", "16",
                "--budget", "5000000", "--trials", "4", "--workers", "2",
                "--backend", "batched", "--plan", "--no-cache",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "plan      : batched — 2 shard(s) x 2 worker(s)" in captured
        assert "backend   : batched" in captured

    @pytest.mark.parametrize("flag", ["--async", "--watch", "--adaptive"])
    def test_run_plan_rejects_async_watch_and_adaptive(self, capsys, flag):
        code = main(
            [
                "run", "--algorithm", "algorithm1", "--distance", "8",
                "--trials", "4", "--no-cache", "--plan", flag,
            ]
        )
        assert code == 2
        assert "--plan" in capsys.readouterr().err

    def test_backends_subcommand_lists_registry(self, capsys):
        code = main(["backends"])
        captured = capsys.readouterr().out
        assert code == 0
        for name in ("reference", "batched"):
            assert name in captured
        assert "algorithm1" in captured

    def test_backends_subcommand_shows_priorities_and_resolution(self, capsys):
        code = main(["backends"])
        captured = capsys.readouterr().out
        assert code == 0
        # The batched backend's priority is visible...
        assert "| batched | p30 |" in captured
        # ...and the resolution report explains what auto picks.
        assert "algorithm1      -> batched" in captured
        assert "spiral          -> reference" in captured

    def test_backends_subcommand_shows_decline_reasons(self, capsys):
        code = main(["backends"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "why backends decline" in captured
        assert "no batch kernel" in captured

    def test_run_rejects_removed_accelerator_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--backend", "accelerator"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_unsupported_backend_reports_error(self, capsys):
        code = main(
            ["run", "--algorithm", "spiral", "--backend", "batched"]
        )
        assert code == 2
        assert "does not support" in capsys.readouterr().err

    def test_run_cache_flags_parse_and_execute(self, capsys):
        args = [
            "run", "--algorithm", "algorithm1", "--distance", "16",
            "--budget", "5000000", "--trials", "8", "--seed", "99",
        ]
        assert main([*args, "--no-cache"]) == 0
        assert main([*args, "--cache"]) == 0
        assert main([*args, "--cache"]) == 0  # served from cache
        assert "find rate" in capsys.readouterr().out

    def test_cache_subcommand_info_and_clear(self, capsys):
        from repro.sim import AlgorithmSpec, SimulationRequest, simulate

        simulate(
            SimulationRequest(
                algorithm=AlgorithmSpec.algorithm1(8), n_agents=2,
                target=(5, 3), move_budget=100_000, n_trials=4, seed=1,
            )
        )
        code = main(["cache", "info"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "directory" in captured
        assert "code version" in captured
        code = main(["cache", "clear"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "cache cleared" in captured


class TestJobsStatusFallback:
    def test_status_of_evicted_finished_job_reads_the_ledger(self, capsys):
        """`jobs status` answers from the JSON ledger once the live
        SimulationJob has been evicted from the in-process registry."""
        from repro.sim import AlgorithmSpec, SimulationRequest
        from repro.sim.jobs import find_job_record, get_manager, simulate_async

        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8),
            n_agents=2,
            target=(8, 8),
            move_budget=200_000,
            n_trials=2,
            seed=616,
        )
        job = simulate_async(request, backend="batched", cache=False)
        job.result()
        assert find_job_record(job.job_id)["state"] == "done"
        manager = get_manager()
        with manager._lock:
            manager._jobs.pop(job.job_id, None)
        assert manager.get(job.job_id) is None

        code = main(["jobs", "status", job.job_id])
        captured = capsys.readouterr().out
        assert code == 0
        assert "state        : done" in captured
        assert job.job_id in captured

    def test_status_reads_a_record_with_dropped_fields(self, capsys):
        """A ledger record written before the degradation fields were
        dropped still loads and prints."""
        import json
        import os

        from repro.sim.jobs import job_status_record, ledger_dir

        record = {
            "job_id": "job-0ld5hape0001",
            "state": "done",
            "algorithm": "algorithm1",
            "backend": "batched",
            "n_trials": 8,
            "n_agents": 2,
            "seed": 7,
            "total_shards": 1,
            "done_shards": 1,
            "done_trials": 8,
            "cached_shards": 0,
            "submitted_at": 1.0,
            "finished_at": 2.0,
            "updated_at": 2.0,
            "pid": os.getpid(),
            "error": None,
            "retries": 0,
            "degraded_from": "accelerator",
            "degradation_reason": "injected device loss at backend.run",
        }
        directory = ledger_dir()
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{record['job_id']}.json").write_text(json.dumps(record))
        assert job_status_record(record["job_id"]) == record

        code = main(["jobs", "status", record["job_id"]])
        captured = capsys.readouterr().out
        assert code == 0
        assert "state        : done" in captured
        assert "backend      : batched" in captured

    def test_status_of_unknown_job_still_errors(self, capsys):
        code = main(["jobs", "status", "job-never-existed"])
        assert code == 2
        assert "no record" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_parser_wiring(self):
        from repro.cli import _cmd_serve, build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-jobs", "2"]
        )
        assert args.func is _cmd_serve
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.max_jobs == 2

    def test_cache_info_reports_shard_counters(self, capsys):
        code = main(["cache", "info"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "shard level" in captured


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "state_machine_tour.py",
        "lowerbound_demo.py",
        # remote_quickstart.py is exercised by CI's dedicated serving
        # smoke step (and its behavior by tests/integration/
        # test_server.py) — not repeated here.
    ],
)
def test_example_scripts_run(script):
    """The cheap examples must execute cleanly as subprocesses."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_examples_directory_complete():
    """All six documented examples exist and are non-trivial."""
    expected = {
        "quickstart.py",
        "foraging_colony.py",
        "tradeoff_explorer.py",
        "lowerbound_demo.py",
        "state_machine_tour.py",
        "remote_quickstart.py",
    }
    present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present
    for name in expected:
        assert (EXAMPLES_DIR / name).read_text().count("\n") > 30
