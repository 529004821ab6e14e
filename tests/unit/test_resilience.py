"""Unit tests for the resilience layer (``repro.resilience`` + jobs).

The contracts under test:

* the fault harness is deterministic — rules match on exact context,
  fire on exact schedules, and the ``probability`` mode draws from the
  plan seed, so two activations of the same plan fire identically;
* inline shard execution retries transient faults with bounded
  attempts and settles bit-identical to an unfaulted run;
* a run that fails settles the job once, on the backend it asked for,
  and the ledger records the failure;
* ``deadline_seconds`` is validated, excluded from the cache
  fingerprint, and enforced at shard boundaries;
* a non-terminal ledger record whose owning process is dead reports
  ``failed-recoverable`` (``repro-ants jobs list`` flags it), and
  resubmitting the request re-runs only the shards the crashed run
  never finished.
"""

from __future__ import annotations

import json

import pytest

import repro.sim.cache as cache_module
from repro.cli import main
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    TransientFaultError,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    fault_counters,
    faults_enabled,
    maybe_inject,
)
from repro.sim import AlgorithmSpec, SimulationRequest, simulate, simulate_async
from repro.sim.cache import cache_key, configure_cache
from repro.sim.backends import get_backend
from repro.sim.jobs import (
    FAILED_RECOVERABLE,
    JobManager,
    _retry_delay,
    effective_state,
    find_job_record,
    job_record,
    ledger_dir,
)
from repro.sim.service import backend_run_count


def _request(**overrides):
    defaults = dict(
        algorithm=AlgorithmSpec.algorithm1(8),
        n_agents=2,
        target=(5, 3),
        move_budget=100_000,
        n_trials=6,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationRequest(**defaults)


@pytest.fixture
def fresh_cache(tmp_path):
    cache = configure_cache(directory=tmp_path, max_memory_entries=64)
    cache.clear()
    yield cache
    configure_cache(
        directory=cache_module.default_cache_dir(), max_memory_entries=256
    )


@pytest.fixture(autouse=True)
def no_leftover_faults():
    """Every test starts and ends without an active fault plan."""
    deactivate()
    yield
    deactivate()


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        # "device_lost" was a kind while the degradation ladder existed;
        # a plan still naming it must fail loudly, not half-apply.
        for kind in ("explode", "device_lost"):
            with pytest.raises(InvalidParameterError, match="unknown fault kind"):
                FaultSpec(site="worker.shard", kind=kind)
            encoded = json.dumps(
                {"specs": [{"site": "backend.run", "kind": kind}]}
            )
            with pytest.raises(InvalidParameterError, match="unknown fault kind"):
                FaultPlan.from_json(encoded)

    def test_schedules_are_mutually_exclusive(self):
        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            FaultSpec(site="worker.shard", kind="error", at=(0,), every=2)

    def test_probability_domain(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec(site="worker.shard", kind="error", probability=1.5)
        with pytest.raises(InvalidParameterError):
            FaultSpec(site="worker.shard", kind="error", probability=0.0)

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.shard",
                    kind="kill",
                    match={"shard_index": 2, "attempt": 0},
                ),
                FaultSpec(
                    site="cache.disk_write",
                    kind="corrupt",
                    at=(0, 3),
                    max_fires=2,
                ),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestHarnessDeterminism:
    def test_inactive_by_default(self):
        assert not faults_enabled()
        assert maybe_inject("worker.shard", shard_index=0, attempt=0) is None

    def test_activation_travels_through_the_environment(self, monkeypatch):
        import os

        plan = FaultPlan(
            specs=(FaultSpec(site="cache.disk_read", kind="error", at=(0,)),)
        )
        activate(plan)
        assert faults_enabled()
        assert os.environ["REPRO_ANTS_FAULTS"] == plan.to_json()
        assert active_plan() == plan
        deactivate()
        assert not faults_enabled()

    def test_invalid_plan_in_the_environment_raises(self, monkeypatch):
        """A malformed plan must not silently disarm the harness: every
        seam raises a typed error naming the variable until it is fixed."""
        monkeypatch.setenv(
            "REPRO_ANTS_FAULTS",
            json.dumps(
                {"specs": [{"site": "backend.run", "kind": "device_lost"}]}
            ),
        )
        with pytest.raises(InvalidParameterError, match="REPRO_ANTS_FAULTS"):
            faults_enabled()
        with pytest.raises(InvalidParameterError, match="REPRO_ANTS_FAULTS"):
            maybe_inject("backend.run", backend="batched")
        monkeypatch.setenv("REPRO_ANTS_FAULTS", "{not json")
        with pytest.raises(InvalidParameterError, match="REPRO_ANTS_FAULTS"):
            active_plan()
        monkeypatch.delenv("REPRO_ANTS_FAULTS")
        assert not faults_enabled()

    def test_match_narrows_and_at_schedules(self):
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.shard",
                        kind="error",
                        match={"shard_index": 2},
                        at=(1,),
                    ),
                )
            )
        )
        # Non-matching context never fires.
        assert maybe_inject("worker.shard", shard_index=0, attempt=0) is None
        # First match (counter 0) does not fire with at=(1,).
        assert maybe_inject("worker.shard", shard_index=2, attempt=0) is None
        # Second match fires.
        with pytest.raises(TransientFaultError):
            maybe_inject("worker.shard", shard_index=2, attempt=1)
        matches, fires = fault_counters()[0]
        assert (matches, fires) == (2, 1)

    def test_max_fires_bounds_total_firings(self):
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(site="cache.disk_read", kind="error", max_fires=1),
                )
            )
        )
        with pytest.raises(TransientFaultError):
            maybe_inject("cache.disk_read", level="entry")
        assert maybe_inject("cache.disk_read", level="entry") is None

    def test_probability_schedule_is_seed_deterministic(self):
        def pattern():
            fired = []
            for _ in range(32):
                try:
                    fired.append(
                        maybe_inject("cache.disk_read", level="entry")
                        is not None
                    )
                except TransientFaultError:
                    fired.append(True)
            return fired

        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="cache.disk_read", kind="error", probability=0.5
                ),
            ),
            seed=1234,
        )
        activate(plan)
        first = pattern()
        deactivate()
        activate(plan)
        assert pattern() == first
        assert any(first) and not all(first)

    def test_action_kinds_are_returned_not_raised(self):
        activate(
            FaultPlan(
                specs=(FaultSpec(site="cache.disk_write", kind="truncate"),)
            )
        )
        spec = maybe_inject("cache.disk_write", level="entry")
        assert spec is not None and spec.kind == "truncate"

    def test_retry_delay_is_deterministic_and_bounded(self):
        delays = [_retry_delay("job-x", 3, attempt) for attempt in (1, 2, 3)]
        assert delays == [_retry_delay("job-x", 3, a) for a in (1, 2, 3)]
        assert all(0.0 < delay <= 2.0 for delay in delays)
        # Different shards decorrelate.
        assert _retry_delay("job-x", 3, 1) != _retry_delay("job-x", 4, 1)


class TestShardRetries:
    def test_transient_fault_is_retried_bit_identical(self, fresh_cache):
        request = _request(seed=41)
        unfaulted = simulate(request, backend="reference", cache=False)
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="backend.run",
                        kind="error",
                        match={"backend": "reference", "attempt": 0},
                    ),
                )
            )
        )
        job = simulate_async(request, backend="reference", cache=False)
        result = job.result(timeout=60)
        assert result.outcomes == unfaulted.outcomes
        assert job._retries == 1

    def test_persistent_fault_exhausts_attempts_and_fails(self, fresh_cache):
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="backend.run",
                        kind="error",
                        match={"backend": "reference"},
                    ),
                )
            )
        )
        job = simulate_async(
            _request(seed=42), backend="reference", cache=False
        )
        with pytest.raises(TransientFaultError):
            job.result(timeout=60)
        assert isinstance(job.exception(), TransientFaultError)
        assert job._retries == 2  # attempts 1 and 2 of _MAX_SHARD_ATTEMPTS=3


class TestPipelineFailure:
    """A failed run settles the job once, on the backend it asked for."""

    def _persistent_fault(self):
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="backend.run",
                        kind="error",
                        match={"backend": "reference"},
                    ),
                )
            )
        )

    def test_failure_is_written_to_the_ledger(self, fresh_cache):
        self._persistent_fault()
        job = simulate_async(_request(seed=44), backend="reference")
        with pytest.raises(TransientFaultError):
            job.result(timeout=60)
        # The terminal record is written before result() returns.
        record = find_job_record(job.job_id)
        assert record is not None
        assert record["state"] == "failed"
        assert record["backend"] == "reference"
        assert "injected" in record["error"]
        # The persisted record has exactly the live record's fields.
        assert set(record) == set(job_record(job))

    def test_invalid_plan_fails_the_run_instead_of_disarming(
        self, fresh_cache, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_ANTS_FAULTS",
            '{"specs": [{"site": "backend.run", "kind": "device_lost"}]}',
        )
        with pytest.raises(InvalidParameterError, match="REPRO_ANTS_FAULTS"):
            simulate(_request(seed=47), backend="batched", cache=False)

    def test_failure_runs_no_other_backend(self, fresh_cache):
        self._persistent_fault()
        before = backend_run_count()
        job = simulate_async(
            _request(seed=45), backend="reference", cache=False
        )
        with pytest.raises(TransientFaultError):
            job.result(timeout=60)
        assert job.backend == "reference"
        assert backend_run_count() == before

    def test_non_retryable_error_fails_on_first_attempt(
        self, fresh_cache, monkeypatch
    ):
        calls = []

        def broken_run(request):
            calls.append(request)
            raise ValueError("backend bug")

        monkeypatch.setattr(get_backend("reference"), "run", broken_run)
        job = simulate_async(
            _request(seed=46), backend="reference", cache=False
        )
        with pytest.raises(ValueError, match="backend bug"):
            job.result(timeout=60)
        assert len(calls) == 1
        assert job._retries == 0


class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            _request(deadline_seconds=0.0)
        with pytest.raises(InvalidParameterError):
            _request(deadline_seconds=-1.0)

    def test_deadline_is_not_part_of_the_cache_identity(self):
        base = _request(seed=45)
        with_deadline = _request(seed=45, deadline_seconds=30.0)
        assert cache_key(base, "reference") == cache_key(
            with_deadline, "reference"
        )

    def test_pooled_deadline_raises_deadline_exceeded(self, fresh_cache):
        activate(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.shard", kind="stall", seconds=1.5
                    ),
                )
            )
        )
        # A private manager: its pool is created after activate(), so
        # the workers inherit the fault plan through the environment.
        manager = JobManager()
        try:
            job = manager.submit(
                _request(seed=46, n_trials=4, deadline_seconds=0.3),
                backend="reference",
                workers=2,
            )
            with pytest.raises(DeadlineExceededError, match="deadline"):
                job.result(timeout=60)
        finally:
            deactivate()
            manager.close()


class TestLedgerRecovery:
    def _dead_record(self, job_id: str = "job-deadbeef0001") -> dict:
        return {
            "job_id": job_id,
            "state": "running",
            "algorithm": "algorithm1",
            "backend": "reference",
            "n_trials": 8,
            "total_shards": 2,
            "done_shards": 1,
            "done_trials": 4,
            "cached_shards": 0,
            "submitted_at": 1.0,
            "updated_at": 1.0,
            "pid": 2**22 + 12345,  # beyond any plausible live pid
            "error": None,
        }

    def test_effective_state_flags_dead_owner(self):
        record = self._dead_record()
        assert effective_state(record) == FAILED_RECOVERABLE
        record["state"] = "done"
        assert effective_state(record) == "done"

    def test_jobs_list_flags_failed_recoverable(self, fresh_cache, capsys):
        directory = ledger_dir()
        directory.mkdir(parents=True, exist_ok=True)
        record = self._dead_record()
        (directory / f"{record['job_id']}.json").write_text(
            json.dumps(record)
        )
        assert main(["jobs", "list"]) == 0
        out = capsys.readouterr().out
        assert record["job_id"] in out
        assert FAILED_RECOVERABLE in out

    def test_resumed_run_reuses_the_crashed_runs_shards(self, fresh_cache):
        request = _request(seed=47, n_trials=8)
        # Simulate the crashed run's surviving work: shard 0 of the
        # 2-shard layout was written through before the owner died.
        reference = simulate(request, backend="reference", cache=False)
        fresh_cache.store_shard(
            request, "reference", range(0, 4), reference.outcomes[0:4]
        )
        directory = ledger_dir()
        directory.mkdir(parents=True, exist_ok=True)
        record = self._dead_record()
        (directory / f"{record['job_id']}.json").write_text(
            json.dumps(record)
        )
        before = backend_run_count()
        resumed = simulate_async(request, backend="reference", workers=2)
        result = resumed.result(timeout=60)
        # Exactly the one unfinished shard ran; the survivor came from
        # the shard cache, and the assembled result is bit-identical.
        assert backend_run_count() == before + 1
        assert resumed.progress().cached_shards == 1
        assert result.outcomes == reference.outcomes
