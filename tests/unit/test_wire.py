"""The serving wire schema: versioning, strictness, exact round trips."""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidParameterError
from repro.server import wire
from repro.server.wire import WIRE_VERSION, WireError
from repro.sim import AlgorithmSpec, SimulationRequest, simulate
from repro.sim.jobs import JobProgress, JobState, ShardResult
from repro.sim.metrics import AgentOutcome, FastRunStats, OutcomeBatch, SearchOutcome


def _request(**overrides) -> SimulationRequest:
    fields = dict(
        algorithm=AlgorithmSpec.nonuniform(8, 2),
        n_agents=3,
        target=(5, -7),
        move_budget=123_456,
        step_budget=None,
        n_trials=4,
        seed=314159,
        seed_keys=(2, 7),
        distance_bound=9,
    )
    fields.update(overrides)
    return SimulationRequest(**fields)


class TestRequestRoundTrip:
    def test_exact_equality_including_seeds(self):
        request = _request()
        decoded = wire.request_from_wire(wire.request_to_wire(request))
        assert decoded == request
        assert decoded.seed == request.seed
        assert decoded.seed_keys == request.seed_keys

    def test_survives_json_serialization(self):
        request = _request(step_budget=77)
        over_the_socket = json.loads(json.dumps(wire.request_to_wire(request)))
        assert wire.request_from_wire(over_the_socket) == request

    @pytest.mark.parametrize(
        "spec",
        [
            AlgorithmSpec.algorithm1(16),
            AlgorithmSpec.uniform(2),
            AlgorithmSpec.doubly_uniform(1, K=5),
            AlgorithmSpec.random_walk(),
            AlgorithmSpec.feinerman(),
            AlgorithmSpec.spiral(),
            AlgorithmSpec.levy(),
        ],
        ids=lambda spec: spec.name,
    )
    def test_every_algorithm_family_round_trips(self, spec):
        request = _request(algorithm=spec, distance_bound=16)
        assert wire.request_from_wire(wire.request_to_wire(request)) == request

    def test_calibrated_K_is_preserved_verbatim(self):
        spec = AlgorithmSpec.uniform(1)  # K resolved by calibration
        decoded = wire.algorithm_from_wire(wire.algorithm_to_wire(spec))
        assert decoded.K == spec.K
        assert decoded == spec


class TestStrictDecoding:
    def test_wrong_wire_version_rejected(self):
        payload = wire.request_to_wire(_request())
        payload["wire"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version"):
            wire.request_from_wire(payload)

    def test_missing_version_rejected(self):
        payload = wire.request_to_wire(_request())
        del payload["wire"]
        with pytest.raises(WireError, match="wire version"):
            wire.request_from_wire(payload)

    def test_missing_required_field_rejected(self):
        payload = wire.request_to_wire(_request())
        del payload["move_budget"]
        with pytest.raises(WireError, match="move_budget"):
            wire.request_from_wire(payload)

    def test_non_integer_field_rejected(self):
        payload = wire.request_to_wire(_request())
        payload["n_agents"] = "four"
        with pytest.raises(WireError, match="n_agents"):
            wire.request_from_wire(payload)

    def test_bad_target_rejected(self):
        payload = wire.request_to_wire(_request())
        payload["target"] = [1, 2, 3]
        with pytest.raises(WireError, match="target"):
            wire.request_from_wire(payload)

    def test_domain_validation_still_runs(self):
        payload = wire.request_to_wire(_request())
        payload["n_agents"] = 0
        with pytest.raises(InvalidParameterError):
            wire.request_from_wire(payload)

    def test_unknown_algorithm_rejected(self):
        payload = wire.request_to_wire(_request())
        payload["algorithm"]["name"] = "teleport"
        with pytest.raises(InvalidParameterError, match="teleport"):
            wire.request_from_wire(payload)


class TestOutcomeRoundTrip:
    def _outcome(self) -> SearchOutcome:
        return SearchOutcome(
            found=True,
            m_moves=123,
            m_steps=456,
            finder=1,
            n_agents=2,
            move_budget=10_000,
            per_agent=[
                AgentOutcome(
                    agent_id=0,
                    found=False,
                    moves_at_find=None,
                    steps_at_find=None,
                    total_moves=999,
                    total_steps=1500,
                    final_position=(3, -4),
                ),
                AgentOutcome(
                    agent_id=1,
                    found=True,
                    moves_at_find=123,
                    steps_at_find=456,
                    total_moves=123,
                    total_steps=456,
                    final_position=(5, 5),
                ),
            ],
            stats=FastRunStats(iterations_executed=7, rounds_executed=3),
        )

    def test_full_outcome_round_trips(self):
        outcome = self._outcome()
        (decoded,) = wire.outcomes_from_wire(
            json.loads(json.dumps(
                wire.outcomes_to_wire(OutcomeBatch.from_outcomes([outcome]))
            ))
        )
        assert decoded == outcome
        assert decoded.per_agent == outcome.per_agent
        assert decoded.stats == outcome.stats

    def test_not_found_outcome_round_trips(self):
        outcome = SearchOutcome(
            found=False, m_moves=None, m_steps=None, finder=None,
            n_agents=4, move_budget=100,
        )
        batch = OutcomeBatch.from_outcomes([outcome])
        assert wire.outcomes_from_wire(wire.outcomes_to_wire(batch)) == (outcome,)

    def test_simulated_outcomes_round_trip(self):
        """Real backend output — numpy scalars and all — survives."""
        request = _request(algorithm=AlgorithmSpec.algorithm1(8), n_trials=3)
        result = simulate(request, backend="batched", cache=False)
        decoded = wire.result_from_wire(
            json.loads(json.dumps(wire.result_to_wire(result)))
        )
        assert decoded.outcomes == result.outcomes
        assert decoded.request == result.request
        assert decoded.backend == result.backend


class TestShardAndProgress:
    def test_shard_round_trips(self):
        outcome = SearchOutcome(
            found=False, m_moves=None, m_steps=None, finder=None,
            n_agents=1, move_budget=10,
        )
        shard = ShardResult(
            shard_index=2,
            trial_start=8,
            trial_count=1,
            outcomes=OutcomeBatch.from_outcomes([outcome]),
            from_cache=True,
        )
        decoded = wire.shard_from_wire(
            json.loads(json.dumps(wire.shard_to_wire(shard)))
        )
        assert decoded == shard
        assert decoded.trial_indices == shard.trial_indices

    def test_progress_encoding(self):
        progress = JobProgress(
            state=JobState.RUNNING,
            total_shards=4,
            done_shards=1,
            total_trials=100,
            done_trials=25,
            cached_shards=0,
        )
        payload = wire.progress_to_wire(progress)
        assert payload["state"] == "running"
        assert payload["fraction"] == pytest.approx(0.25)
        assert wire.state_from_wire(payload["state"]) is JobState.RUNNING

    def test_unknown_state_rejected(self):
        with pytest.raises(WireError, match="state"):
            wire.state_from_wire("exploded")
