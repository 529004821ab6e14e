"""Unit tests for the simulation service layer: specs, registry, backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.sim import simulate
from repro.sim.backends import (
    AlgorithmSpec,
    BackendError,
    KNOWN_ALGORITHMS,
    SimulationRequest,
    get_backend,
    probe_request,
    registered_backends,
    resolve_backend,
)
from repro.sim.rng import derive_seed


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


class TestAlgorithmSpec:
    def test_constructors_validate(self):
        with pytest.raises(InvalidParameterError):
            AlgorithmSpec.algorithm1(1)
        with pytest.raises(InvalidParameterError):
            AlgorithmSpec.nonuniform(8, 0)
        with pytest.raises(InvalidParameterError):
            AlgorithmSpec.uniform(0)

    def test_uniform_defaults_to_calibrated_K(self):
        from repro.core.uniform import calibrated_K

        assert AlgorithmSpec.uniform(2).K == calibrated_K(2)

    def test_build_constructs_the_right_classes(self):
        from repro.baselines.feinerman import FeinermanSearch
        from repro.core.algorithm1 import Algorithm1
        from repro.core.nonuniform import NonUniformSearch
        from repro.core.uniform import UniformSearch

        assert isinstance(AlgorithmSpec.algorithm1(8).build(2), Algorithm1)
        assert isinstance(AlgorithmSpec.nonuniform(8, 1).build(2), NonUniformSearch)
        built = AlgorithmSpec.uniform(1).build(4)
        assert isinstance(built, UniformSearch)
        assert built.n_agents == 4
        assert isinstance(AlgorithmSpec.feinerman().build(3), FeinermanSearch)

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = AlgorithmSpec.nonuniform(16, 2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(AlgorithmSpec.nonuniform(16, 2))


class TestRequestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            _request(n_agents=0)
        with pytest.raises(InvalidParameterError):
            _request(move_budget=0)
        with pytest.raises(InvalidParameterError):
            _request(n_trials=0)
        with pytest.raises(InvalidParameterError):
            _request(seed=-1)

    def test_distance_bound_defaults(self):
        assert _request().effective_distance_bound == 8
        assert _request(target=(40, 3)).effective_distance_bound == 40
        assert _request(distance_bound=64).effective_distance_bound == 64

    def test_trial_seed_matches_derive_seed(self):
        request = _request(seed=9, seed_keys=(3, 4))
        ours = np.random.default_rng(request.trial_seed(5)).random()
        direct = np.random.default_rng(derive_seed(9, 3, 4, 5)).random()
        assert ours == direct


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = set(registered_backends())
        assert {"reference", "batched"} <= names

    def test_removed_accelerator_name_is_a_backend_error(self):
        with pytest.raises(BackendError):
            simulate(_request(n_trials=4), backend="accelerator", cache=False)

    def test_removed_closed_form_name_is_a_backend_error(self):
        with pytest.raises(BackendError):
            simulate(_request(n_trials=1), backend="closed_form", cache=False)

    def test_cache_name_is_the_registry_name(self):
        for name, backend in registered_backends().items():
            assert backend.cache_name() == name

    def test_job_results_are_cached_under_the_backend_name(self, tmp_path):
        import repro.sim.cache as cache_module

        cache = cache_module.configure_cache(
            directory=tmp_path, max_memory_entries=8
        )
        try:
            request = _request(n_trials=4)
            result = simulate(request, backend="batched")
            assert cache.lookup(request, "batched") == result.outcomes
        finally:
            cache_module.configure_cache(
                directory=cache_module.default_cache_dir(),
                max_memory_entries=256,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError):
            get_backend("warp-drive")

    def test_auto_prefers_batched_for_trial_batches(self):
        assert resolve_backend(_request(n_trials=50)).name == "batched"

    def test_auto_prefers_batched_for_every_covered_algorithm_batch(self):
        """Trial batches of all six families resolve to the batch pass."""
        specs = (
            AlgorithmSpec.algorithm1(8),
            AlgorithmSpec.nonuniform(8, 1),
            AlgorithmSpec.uniform(1),
            AlgorithmSpec.doubly_uniform(1),
            AlgorithmSpec.random_walk(),
            AlgorithmSpec.feinerman(),
        )
        for spec in specs:
            assert resolve_backend(_request(spec, n_trials=50)).name == "batched"
            assert resolve_backend(_request(spec)).name == "batched"

    def test_auto_prefers_batched_for_single_trials(self):
        assert resolve_backend(_request()).name == "batched"

    def test_auto_falls_back_to_reference(self):
        assert resolve_backend(_request(AlgorithmSpec.spiral())).name == "reference"
        assert (
            resolve_backend(_request(step_budget=10_000)).name == "reference"
        )

    def test_explicit_unsupported_backend_errors(self):
        with pytest.raises(BackendError):
            resolve_backend(_request(AlgorithmSpec.spiral()), "batched")

    def test_explicit_unsupported_backend_error_carries_the_reason(self):
        """The BackendError message propagates support_reason verbatim."""
        with pytest.raises(BackendError) as excinfo:
            resolve_backend(_request(AlgorithmSpec.spiral()), "batched")
        assert "no batch kernel" in str(excinfo.value)
        with pytest.raises(BackendError) as excinfo:
            resolve_backend(_request(step_budget=500), "batched")
        assert "step_budget" in str(excinfo.value)

    def test_auto_tie_break_is_deterministic_by_name(self):
        """Equal auto_priority ties resolve by name — repeatably.

        Run in fresh interpreters (twice) so the stub registrations
        can't leak into this process's registry: two stubs sharing the
        top priority must always resolve to the lexicographically
        larger name, whatever their registration order.
        """
        import os
        import subprocess
        import sys

        code = (
            "from repro.sim.backends import register_backend, "
            "resolve_backend, probe_request\n"
            "from repro.sim.backends.base import SimulationBackend\n"
            "class Stub(SimulationBackend):\n"
            "    def __init__(self, name): self.name = name\n"
            "    def supports(self, request): return True\n"
            "    def run(self, request, trial_indices=None): return ()\n"
            "    def auto_priority(self, request): return 1000\n"
            "register_backend(Stub('tie-{0}'))\n"
            "register_backend(Stub('tie-{1}'))\n"
            "req = probe_request('algorithm1', n_trials=50)\n"
            "print(resolve_backend(req).name)\n"
        )
        for order in (("a", "b"), ("b", "a")):
            script = code.format(*order)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=dict(os.environ),
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "tie-b", (
                f"registration order {order} broke the name tie-break"
            )

    def test_selector_static_fallback_without_profile(self):
        """plan_request mirrors resolve_backend."""
        from repro.sim.selector import plan_request

        for request in (
            _request(n_trials=50),
            _request(),
            _request(AlgorithmSpec.spiral()),
            _request(step_budget=10_000),
        ):
            plan = plan_request(request, workers=1)
            assert plan.backend == resolve_backend(request).name

    def test_selector_static_fallback_keeps_historical_sharding(self):
        from repro.sim.selector import plan_request

        plan = plan_request(_request(n_trials=50), workers=4)
        assert (plan.n_shards, plan.workers) == (4, 4)
        single = plan_request(_request(), workers=4)
        assert single.n_shards == 1

    def test_get_backend_works_in_fresh_interpreter(self):
        """Built-ins must load lazily on *any* first registry call."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.sim.backends import get_backend; "
            "print(get_backend('reference').name)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "reference"

    def test_custom_backend_registration_keeps_builtins(self):
        """Registering a custom backend first must not suppress defaults."""
        import os
        import subprocess
        import sys

        code = (
            "from repro.sim.backends import register_backend, "
            "registered_backends\n"
            "from repro.sim.backends.base import SimulationBackend\n"
            "class Null(SimulationBackend):\n"
            "    name = 'null-test'\n"
            "    def supports(self, request): return False\n"
            "    def run(self, request, trial_indices=None): return ()\n"
            "register_backend(Null())\n"
            "print(sorted(registered_backends()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert result.returncode == 0, result.stderr
        for name in ("reference", "batched", "null-test"):
            assert name in result.stdout

    def test_coverage_report_shape(self):
        coverage = get_backend("reference").coverage()
        assert set(coverage) == set(KNOWN_ALGORITHMS)
        assert all(coverage.values())
        batched = get_backend("batched").coverage()
        for name in (
            "algorithm1", "nonuniform", "uniform",
            "doubly-uniform", "random-walk", "feinerman",
        ):
            assert batched[name], f"batched must cover {name}"
        assert not batched["spiral"] and not batched["levy"]

    def test_decline_reasons_explain_gating(self):
        """supports() declines carry a human-readable reason string."""
        batched = get_backend("batched")
        reasons = batched.decline_reasons()
        assert "spiral" in reasons and "kernel" in reasons["spiral"]
        assert batched.support_reason(_request()) is None
        budgeted = _request(step_budget=1000)
        # The step-budget decline names the actual gate, not a bogus
        # unsupported-algorithm claim.
        assert "step_budget" in batched.support_reason(budgeted)
        # The reference engine supports everything: no reasons at all.
        assert get_backend("reference").decline_reasons() == {}

    def test_supports_and_reason_agree_everywhere(self):
        """Invariant: supports(r) <=> support_reason(r) is None."""
        probes = [
            probe_request(name) for name in KNOWN_ALGORITHMS
        ] + [_request(), _request(step_budget=500), _request(n_trials=50)]
        for backend in registered_backends().values():
            for probe in probes:
                if probe is None:
                    continue
                assert backend.supports(probe) == (
                    backend.support_reason(probe) is None
                ), (backend.name, probe.algorithm.name)


class TestBackendsRun:
    def test_reference_bit_identical_to_direct_engine_call(self):
        from repro.core.algorithm1 import Algorithm1
        from repro.grid.world import GridWorld
        from repro.sim.engine import EngineConfig, SearchEngine

        request = _request(n_trials=4, seed=11, seed_keys=(2,))
        facade = simulate(request, backend="reference")
        engine = SearchEngine(EngineConfig(move_budget=100_000))
        direct = [
            engine.run(
                Algorithm1(8), 2, GridWorld(target=(5, 3), distance_bound=8),
                rng=derive_seed(11, 2, trial),
            ).moves_or_budget
            for trial in range(4)
        ]
        assert list(facade.moves_or_budget()) == direct

    def test_reference_backend_reports_steps_and_agents(self):
        result = simulate(_request(move_budget=500_000), backend="reference")
        outcome = result.outcome
        assert outcome.found
        assert outcome.m_steps is not None
        assert len(outcome.per_agent) == 2

    def test_batched_backend_runs_all_supported_algorithms(self):
        for spec in (
            AlgorithmSpec.algorithm1(8),
            AlgorithmSpec.nonuniform(8, 1),
            AlgorithmSpec.uniform(1),
            AlgorithmSpec.doubly_uniform(1),
            AlgorithmSpec.random_walk(),
            AlgorithmSpec.feinerman(),
        ):
            result = simulate(
                _request(spec, n_trials=8, move_budget=500_000), backend="batched"
            )
            assert len(result.outcomes) == 8
            assert result.find_rate > 0
            for outcome in result.outcomes:
                if outcome.found:
                    assert 0 < outcome.m_moves <= 500_000
                    assert 0 <= outcome.finder < 2

    def test_batched_deterministic_per_request(self):
        request = _request(n_trials=6, seed=123)
        a = simulate(request, backend="batched").moves_or_budget()
        b = simulate(request, backend="batched").moves_or_budget()
        assert list(a) == list(b)

    def test_batched_empty_shard_returns_empty(self):
        backend = get_backend("batched")
        assert backend.run(_request(n_trials=4), trial_indices=[]) == ()

    def test_batched_origin_target(self):
        result = simulate(
            _request(target=(0, 0), n_trials=3), backend="batched"
        )
        assert all(o.found and o.m_moves == 0 for o in result.outcomes)

    def test_workers_shard_is_bit_identical_for_per_trial_backends(self):
        request = _request(n_trials=10, seed=5)
        serial = simulate(request, backend="reference", workers=1)
        sharded = simulate(request, backend="reference", workers=3)
        assert list(serial.moves_or_budget()) == list(sharded.moves_or_budget())
        assert [o.finder for o in serial.outcomes] == [
            o.finder for o in sharded.outcomes
        ]

    def test_simulation_result_accessors(self):
        result = simulate(_request(n_trials=5))
        # Records are built on demand from the columns: equal, not the
        # same object.
        assert result.outcome == result.outcomes[0]
        assert 0.0 <= result.find_rate <= 1.0
        assert result.moves_or_budget().shape == (5,)


def _colony(spec, n_agents, target, move_budget, n_trials=1, seed=0):
    """One ``batched`` run of ``n_trials`` colonies, uncached."""
    request = SimulationRequest(
        algorithm=spec,
        n_agents=n_agents,
        target=target,
        move_budget=move_budget,
        n_trials=n_trials,
        seed=seed,
    )
    return simulate(request, backend="batched", cache=False)


class TestBatchedColonies:
    """Single-colony behaviour of every batched family."""

    @pytest.mark.parametrize(
        "spec, n_agents, target, min_moves, max_moves",
        [
            (AlgorithmSpec.algorithm1(8), 4, (2, 1), 3, 10**5),
            (AlgorithmSpec.nonuniform(16, 1), 4, (5, 5), 10, 10**6),
            (AlgorithmSpec.uniform(1, K=2), 4, (2, 2), 4, 10**5),
            (AlgorithmSpec.doubly_uniform(1), 4, (3, 2), 5, 10**7),
            (AlgorithmSpec.random_walk(), 8, (1, 0), 1, 10_000),
            (AlgorithmSpec.feinerman(), 4, (20, -13), 33, 10**7),
        ],
        ids=["algorithm1", "nonuniform", "uniform", "doubly-uniform",
             "random-walk", "feinerman"],
    )
    def test_finds_a_reachable_target(
        self, spec, n_agents, target, min_moves, max_moves
    ):
        outcome = _colony(spec, n_agents, target, max_moves, seed=5).outcome
        assert outcome.found
        assert min_moves <= outcome.m_moves <= max_moves

    @pytest.mark.parametrize(
        "spec, target, move_budget",
        [
            (AlgorithmSpec.algorithm1(8), (6, 6), 5),
            (AlgorithmSpec.uniform(1, K=2), (50, 50), 20),
            # With max_phase=1 the square side is 2: out of reach.
            (AlgorithmSpec.uniform(1, K=2, max_phase=1), (40, 40), 10**6),
            (AlgorithmSpec.doubly_uniform(1, K=2), (60, 60), 100),
            (AlgorithmSpec.random_walk(), (90, 90), 50),
            (AlgorithmSpec.feinerman(), (500, 500), 100),
        ],
        ids=["algorithm1", "uniform", "uniform-max-phase", "doubly-uniform",
             "random-walk", "feinerman"],
    )
    def test_unreachable_target_is_not_found(self, spec, target, move_budget):
        assert not _colony(spec, 2, target, move_budget).outcome.found

    @pytest.mark.parametrize(
        "spec",
        [
            AlgorithmSpec.algorithm1(8),
            AlgorithmSpec.doubly_uniform(1, K=2),
            AlgorithmSpec.random_walk(),
            AlgorithmSpec.feinerman(),
        ],
        ids=lambda spec: spec.name,
    )
    def test_origin_target(self, spec):
        assert _colony(spec, 1, (0, 0), 10).outcome.m_moves == 0

    @pytest.mark.parametrize(
        "n_agents, move_budget", [(0, 10), (1, 0)], ids=["agents", "budget"]
    )
    def test_invalid_colony_rejected(self, n_agents, move_budget):
        with pytest.raises(InvalidParameterError):
            _colony(AlgorithmSpec.random_walk(), n_agents, (1, 1), move_budget)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AlgorithmSpec.algorithm1(1),
            lambda: AlgorithmSpec.uniform(0, K=2),
            lambda: AlgorithmSpec.doubly_uniform(0, K=2),
        ],
        ids=["algorithm1", "uniform", "doubly-uniform"],
    )
    def test_invalid_spec_rejected(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_random_walk_m_moves_parity(self):
        """A walk reaching (x, y) needs moves with the parity of x+y."""
        outcomes = _colony(
            AlgorithmSpec.random_walk(), 2, (1, 2), 100_000, n_trials=20
        ).outcomes
        moves = outcomes.m_moves[outcomes.found]
        assert moves.size
        assert ((moves - 3) % 2 == 0).all()

    def test_algorithm1_single_agent_mean_within_theory_envelope(self):
        """E[M_moves] for one agent at the hardest corner stays inside
        the proof's explicit ``4D/(1-q)`` envelope (Theorem 3.5)."""
        from repro.core import theory

        distance = 16
        outcomes = _colony(
            AlgorithmSpec.algorithm1(distance), 1, (distance, distance),
            10**7, n_trials=300, seed=1,
        ).outcomes
        assert outcomes.found.all()
        assert outcomes.m_moves.mean() <= theory.expected_moves_upper_bound(
            distance, 1
        )

    def test_algorithm1_more_agents_never_slower(self):
        distance, target = 32, (20, -13)
        means = [
            _colony(
                AlgorithmSpec.algorithm1(distance), n_agents, target, 10**7,
                n_trials=150, seed=17,
            ).moves_or_budget().mean()
            for n_agents in (1, 8, 64)
        ]
        assert means[0] > means[1] > means[2]

    def test_random_walk_reproducible_with_same_seed(self):
        first, second = (
            _colony(AlgorithmSpec.random_walk(), 2, (2, 1), 5_000, seed=99)
            .outcome.m_moves
            for _ in range(2)
        )
        assert first == second


class TestFastRunStats:
    def test_batched_outcomes_carry_per_trial_stats(self):
        result = simulate(_request(n_trials=16, seed=3), backend="batched")
        for outcome in result.outcomes:
            stats = outcome.stats
            assert stats is not None
            # Every colony executed at least one round of its own pairs.
            assert stats.rounds_executed >= 1
            assert stats.iterations_executed >= stats.rounds_executed
            # A colony's pairs can't execute more than agents-per-round.
            assert stats.iterations_executed <= 2 * stats.rounds_executed
        # Per colony, not one shared batch record: colonies that retire
        # early must show fewer rounds than long-running ones.
        rounds = {o.stats.rounds_executed for o in result.outcomes}
        assert len(rounds) > 1

    def test_batched_per_trial_stats_for_every_algorithm(self):
        for spec in (
            AlgorithmSpec.doubly_uniform(1),
            AlgorithmSpec.random_walk(),
            AlgorithmSpec.feinerman(),
        ):
            result = simulate(
                _request(spec, n_trials=6, move_budget=200_000),
                backend="batched",
            )
            for outcome in result.outcomes:
                assert outcome.stats is not None
                assert outcome.stats.iterations_executed > 0
                assert outcome.stats.rounds_executed > 0

    def test_reference_outcomes_have_no_stats(self):
        result = simulate(_request(), backend="reference")
        assert result.outcome.stats is None
