"""Unit tests for the static planner and adaptive sampling.

Covers the contracts of :mod:`repro.sim.selector` and
:func:`repro.sim.jobs.simulate_adaptive`:

* static planning — an explicit backend is pinned and sharded by the
  worker cap, invalid caps are rejected, and the introspection payload
  carries one plan per selector family;
* executing a plan through ``simulate(backend=, workers=)``, on the
  same shard-cache layout as an unplanned run;
* adaptive sampling: early stopping at the CI target, index-order batch
  consumption, and bit-compatible shard-cache replay proven with
  :func:`backend_run_count`.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InvalidParameterError
from repro.sim import simulate
from repro.sim.backends import AlgorithmSpec, SimulationRequest
from repro.sim.cache import configure_cache, get_cache
from repro.sim.jobs import backend_run_count, simulate_adaptive
from repro.sim.selector import (
    SimulationPlan,
    plan_request,
    selector_payload,
)


@pytest.fixture()
def isolated_cache(tmp_path):
    """Point the process cache at a fresh dir."""
    previous = get_cache().directory
    configure_cache(directory=tmp_path)
    yield tmp_path
    configure_cache(directory=previous)


def _request(spec=None, **overrides):
    defaults = dict(
        algorithm=spec or AlgorithmSpec.algorithm1(8),
        n_agents=2,
        target=(5, 3),
        move_budget=100_000,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationRequest(**defaults)


class TestPlanning:
    def test_explicit_backend_is_pinned_but_still_sharded(self):
        plan = plan_request(
            _request(n_trials=64), backend="reference", workers=4
        )
        assert plan.backend == "reference"
        assert (plan.n_shards, plan.workers) == (4, 4)

    def test_worker_cap_validates(self):
        with pytest.raises(InvalidParameterError):
            plan_request(_request(), workers=0)

    def test_payload_shape(self):
        payload = selector_payload()
        assert set(payload) == {"batch_trials", "plans"}
        assert set(payload["plans"]) == {
            "algorithm1", "nonuniform", "uniform",
            "doubly-uniform", "random-walk", "feinerman",
        }
        for plan in payload["plans"].values():
            assert set(plan) == {"backend", "n_shards", "workers"}


class TestPlanExecution:
    def test_simulate_executes_a_plan(self, isolated_cache):
        request = _request(n_trials=12, seed=31)
        plan = plan_request(request, backend="reference", workers=3)
        assert (plan.n_shards, plan.workers) == (3, 3)
        planned = simulate(
            request, backend=plan.backend, workers=plan.workers, cache=False
        )
        assert planned.backend == "reference"
        # The per-trial backend is bit-identical whatever the layout.
        unplanned = simulate(request, backend="reference", cache=False)
        assert list(planned.moves_or_budget()) == list(
            unplanned.moves_or_budget()
        )

    def test_planned_shards_share_the_unplanned_cache_layout(
        self, isolated_cache
    ):
        """A planned run must hit the shard entries a fixed workers=N
        run of the same layout wrote — same _chunk_trials geometry."""
        request = _request(n_trials=10, seed=5)
        simulate(request, backend="batched", workers=2)
        before = backend_run_count()
        plan = plan_request(request, backend="batched", workers=2)
        simulate(request, backend=plan.backend, workers=plan.workers)
        assert backend_run_count() == before  # full-entry or shard hits


class TestAdaptiveSampling:
    def test_converges_early_on_a_high_hit_rate_family(self, isolated_cache):
        request = _request(
            AlgorithmSpec.algorithm1(8), n_agents=4, target=(8, 8),
            move_budget=50_000, n_trials=600, seed=11,
        )
        run = simulate_adaptive(
            request, metric="hit_probability",
            target_half_width=0.05, batch_size=32, cache=False,
        )
        assert run.converged
        assert run.trials_used < run.max_trials
        assert run.trials_used % 32 == 0
        assert run.half_width <= 0.05
        assert len(run.result.outcomes) == run.trials_used
        assert run.batches_run == run.trials_used // 32

    def test_index_order_prefix_is_bit_compatible(self, isolated_cache):
        """Adaptive trials are exactly the fixed run's leading trials."""
        request = _request(n_trials=64, seed=13)
        run = simulate_adaptive(
            request, metric="moves", target_half_width=1e9,
            batch_size=16, backend="reference", cache=False,
        )
        fixed = simulate(request, backend="reference", cache=False)
        assert run.trials_used >= 16
        prefix = list(fixed.moves_or_budget())[: run.trials_used]
        assert list(run.result.moves_or_budget()) == prefix

    def test_replay_is_served_from_the_shard_cache(self, isolated_cache):
        request = _request(
            AlgorithmSpec.algorithm1(8), n_agents=4, target=(8, 8),
            move_budget=50_000, n_trials=600, seed=11,
        )
        first = simulate_adaptive(
            request, target_half_width=0.05, batch_size=32
        )
        assert first.batches_run > 0
        before = backend_run_count()
        second = simulate_adaptive(
            request, target_half_width=0.05, batch_size=32
        )
        assert backend_run_count() == before, "replay re-simulated"
        assert second.batches_run == 0
        assert second.batches_cached == first.batches_run
        assert second.trials_used == first.trials_used
        assert second.estimate == first.estimate
        assert list(second.result.moves_or_budget()) == list(
            first.result.moves_or_budget()
        )

    def test_budget_exhaustion_stores_the_full_entry(self, isolated_cache):
        request = _request(n_trials=48, seed=3)
        run = simulate_adaptive(
            request, metric="hit_probability",
            target_half_width=1e-6, batch_size=16,
        )
        assert not run.converged
        assert run.trials_used == 48
        # The assembled full-request entry must now serve a fixed run.
        before = backend_run_count()
        fixed = simulate(request)
        assert backend_run_count() == before
        assert len(fixed.outcomes) == 48

    def test_agresti_coull_never_stops_after_one_all_hit_batch(self):
        """At p_hat=1 a Wald interval is zero-width; Agresti-Coull must
        keep the width honest so tiny all-hit batches don't stop."""
        from repro.sim.jobs import _adaptive_estimate
        from repro.sim.metrics import OutcomeBatch, SearchOutcome

        outcomes = OutcomeBatch.from_outcomes([
            SearchOutcome(
                found=True, m_moves=10, m_steps=None, finder=0,
                n_agents=2, move_budget=100,
            )
            for _ in range(8)
        ])
        estimate, half_width = _adaptive_estimate(
            "hit_probability", outcomes, 0.95
        )
        assert 0.0 < estimate < 1.0
        assert half_width > 0.1

    def test_parameter_validation(self):
        request = _request(n_trials=8)
        with pytest.raises(InvalidParameterError):
            simulate_adaptive(request, metric="vibes")
        with pytest.raises(InvalidParameterError):
            simulate_adaptive(request, target_half_width=0.0)
        with pytest.raises(InvalidParameterError):
            simulate_adaptive(request, confidence=1.0)
        with pytest.raises(InvalidParameterError):
            simulate_adaptive(request, batch_size=0)
        with pytest.raises(InvalidParameterError):
            simulate_adaptive(request, min_trials=1)


class TestIntrospectionSurfaces:
    def test_wire_plan_encoding(self):
        from repro.server.wire import plan_to_wire

        plan = SimulationPlan(backend="batched", n_shards=2, workers=2)
        assert plan_to_wire(plan) == {
            "backend": "batched", "n_shards": 2, "workers": 2,
        }

    def test_cli_backends_json_matches_server_shape(self, capsys):
        from repro.cli import main

        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"wire", "backends", "auto_resolution",
                "selector"} <= set(payload)
        for entry in payload["backends"].values():
            assert "algorithms" in entry and "declines" in entry
        assert "plans" in payload["selector"]
