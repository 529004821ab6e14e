"""Parity suite for the device-portable kernel core.

Every family kernel runs under the NumPy namespace and — when torch is
importable — under the torch-CPU namespace, asserting:

* identical result shapes and int64 dtypes after the ``to_numpy``
  boundary cast (dtypes-up-to-cast: torch tensors come back as int64
  ndarrays);
* request-level determinism per namespace (same seed, same arrays);
* KS-equivalent outcome distributions across namespaces — the two
  bindings draw from different streams, so equality is distributional,
  at the same fixed-seed determinism the golden gates use.

The suite is the CI "kernel parity" leg's payload: a torch-equipped
matrix job runs it to prove the shim's torch binding tracks NumPy
semantics, and it degrades to NumPy-only everywhere else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import AlgorithmSpec, SimulationRequest, ks_statistic, \
    ks_two_sample_threshold
from repro.sim.kernels import (
    numpy_namespace,
    run_family,
    sortie_hits,
    torch_namespace,
)
from repro.sim.kernels.core import SENTINEL

N_TRIALS = 200
MOVE_BUDGET = 300_000
SEED = 20140507


def _namespaces():
    spaces = [pytest.param(numpy_namespace(), id="numpy")]
    torch_ns = torch_namespace("cpu")
    if torch_ns is not None:
        spaces.append(pytest.param(torch_ns, id="torch-cpu"))
    return spaces


NAMESPACES = _namespaces()

FAMILY_SPECS = {
    "algorithm1": AlgorithmSpec.algorithm1(8),
    "nonuniform": AlgorithmSpec.nonuniform(8, 2),
    "uniform": AlgorithmSpec.uniform(1),
    "doubly-uniform": AlgorithmSpec.doubly_uniform(1),
    "random-walk": AlgorithmSpec.random_walk(),
    "feinerman": AlgorithmSpec.feinerman(),
}


def _request(family: str, n_trials: int = N_TRIALS) -> SimulationRequest:
    return SimulationRequest(
        algorithm=FAMILY_SPECS[family],
        n_agents=4,
        target=(6, 5),
        move_budget=MOVE_BUDGET,
        n_trials=n_trials,
        seed=SEED,
        distance_bound=8,
    )


def _run(xp, family: str, n_trials: int = N_TRIALS):
    request = _request(family, n_trials)
    rng = xp.rng(request.trial_seed(0))
    return tuple(
        xp.to_numpy(array)
        for array in run_family(xp, rng, request, n_trials)
    )


@pytest.mark.parametrize("xp", NAMESPACES)
@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
class TestKernelShapesAndDtypes:
    def test_shapes_dtypes_and_invariants(self, xp, family):
        """(n_trials,) int64 arrays with coherent per-trial contents."""
        best, finder, iters, rounds = _run(xp, family, n_trials=64)
        for array in (best, finder, iters, rounds):
            assert array.shape == (64,)
            assert array.dtype == np.int64
        found = best != SENTINEL
        # This workload finds the target in at least some colonies.
        assert found.any()
        assert ((finder[found] >= 0) & (finder[found] < 4)).all()
        assert (finder[~found] == -1).all()
        assert (best[found] <= MOVE_BUDGET).all()
        assert (iters >= rounds).all()
        assert (rounds[found] >= 1).all()

    def test_deterministic_per_namespace(self, xp, family):
        """Same request, same namespace => identical arrays."""
        first = _run(xp, family, n_trials=32)
        second = _run(xp, family, n_trials=32)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_torch_distribution_matches_numpy(family):
    """Cross-namespace KS gate: torch outcomes track the NumPy ones.

    Deterministic seeds on both sides — the statistic is a constant,
    so a failure is a semantic divergence in the torch binding (a
    wrong geometric inversion, a scatter that lost duplicates), not
    noise.
    """
    pytest.importorskip("torch")
    torch_ns = torch_namespace("cpu")
    assert torch_ns is not None

    def censored(best):
        return np.minimum(best, MOVE_BUDGET).astype(np.float64)

    numpy_best = _run(numpy_namespace(), family)[0]
    torch_best = _run(torch_ns, family)[0]
    statistic = ks_statistic(censored(numpy_best), censored(torch_best))
    threshold = ks_two_sample_threshold(N_TRIALS, N_TRIALS, alpha=0.01)
    assert statistic <= threshold, (
        f"{family}: torch vs numpy KS {statistic:.4f} > {threshold:.4f}"
    )


BLOCKED_FAMILIES = ["doubly-uniform", "random-walk", "uniform"]


def _edge_run(xp, family: str, *, n_agents: int, target, move_budget: int,
              n_trials: int):
    request = SimulationRequest(
        algorithm=FAMILY_SPECS[family],
        n_agents=n_agents,
        target=target,
        move_budget=move_budget,
        n_trials=n_trials,
        seed=SEED,
        distance_bound=8,
    )
    rng = xp.rng(request.trial_seed(0))
    return tuple(
        xp.to_numpy(array)
        for array in run_family(xp, rng, request, n_trials)
    )


@pytest.mark.parametrize("xp", NAMESPACES)
@pytest.mark.parametrize("family", BLOCKED_FAMILIES)
class TestBlockedRoundBoundaries:
    """Boundary hazards of the blocked-round kernels.

    The blocked kernels draw ``(pairs, block)`` rounds at a time; the
    three hazards are a pool far smaller than one block, the move
    budget expiring inside a block, and a sibling's hit pruning the
    pool in the same block as a cheaper hit.  The assertions lean on
    two exact facts: a sortie hit on target ``(x, y)`` costs exactly
    ``|x| + |y|`` moves within its round, and a walk hit needs a step
    count of the same parity as ``|x| + |y|``.
    """

    def test_pool_smaller_than_block(self, xp, family):
        # Two pairs total: the scratch-budget block is orders of
        # magnitude longer than anything this pool can use, so the
        # whole run lives in the degenerate pool < block regime.
        results = _edge_run(
            xp, family, n_agents=2, target=(3, 2), move_budget=50_000,
            n_trials=1,
        )
        best, finder, iters, rounds = results
        for array in results:
            assert array.shape == (1,)
            assert array.dtype == np.int64
        found = best != SENTINEL
        if found[0]:
            assert 5 <= best[0] <= 50_000
            assert 0 <= finder[0] < 2
        else:
            assert finder[0] == -1
        assert iters[0] >= rounds[0]
        again = _edge_run(
            xp, family, n_agents=2, target=(3, 2), move_budget=50_000,
            n_trials=1,
        )
        for a, b in zip(results, again):
            assert np.array_equal(a, b)

    def test_budget_expires_mid_block(self, xp, family):
        # 777 moves is far less than one block's worth of rounds for
        # every family, so the budget boundary lands inside a block:
        # the sparse exceed scan (phase kernels) and the truncated
        # final block with a partial last word (walk) must censor at
        # the budget, never overshoot it.
        best, finder, iters, rounds = _edge_run(
            xp, family, n_agents=4, target=(6, 5), move_budget=777,
            n_trials=128,
        )
        found = best != SENTINEL
        assert found.any()
        assert (best[found] <= 777).all()
        assert (best[found] >= 11).all()
        if family == "random-walk":
            assert (best[found] % 2 == 1).all()
        assert (finder[~found] == -1).all()
        assert (iters >= rounds).all()

    def test_one_move_budget_hits_in_first_round(self, xp, family):
        # A budget of one move shrinks the walk's first block to a
        # single partial word and makes only round-one sortie hits
        # eligible; any reported find must cost exactly one move.
        best, finder, _, _ = _edge_run(
            xp, family, n_agents=8, target=(1, 0), move_budget=1,
            n_trials=256,
        )
        found = best != SENTINEL
        assert found.any()
        assert (best[found] == 1).all()
        assert (finder[~found] == -1).all()

    def test_sibling_hit_prunes_within_block(self, xp, family):
        # A point-blank target with a generous budget makes many
        # agents of one colony hit inside the same block, racing the
        # best-prune.  The winning total can never dip below the
        # |x| + |y| floor — a cheaper value would mean the prune
        # promoted a partial leg.
        best, finder, _, _ = _edge_run(
            xp, family, n_agents=8, target=(1, 1), move_budget=10_000,
            n_trials=64,
        )
        found = best != SENTINEL
        assert found.all()
        assert (best >= 2).all()
        if family == "random-walk":
            assert (best % 2 == 0).all()
        assert ((finder >= 0) & (finder < 8)).all()
        again = _edge_run(
            xp, family, n_agents=8, target=(1, 1), move_budget=10_000,
            n_trials=64,
        )[0]
        assert np.array_equal(best, again)


@pytest.mark.parametrize("xp", NAMESPACES)
class TestSortieHelpers:
    def test_sortie_hits_closed_form(self, xp):
        """Hand-checked hit cases survive the namespace translation."""
        sv = xp.asarray([1, 1, -1, 1], dtype=xp.int64)
        lv = xp.asarray([5, 3, 2, 0], dtype=xp.int64)
        sh = xp.asarray([1, 1, 1, -1], dtype=xp.int64)
        lh = xp.asarray([0, 4, 9, 2], dtype=xp.int64)
        hit, moves = sortie_hits(xp, (2, 3), sv, lv, sh, lh)
        hit = xp.to_numpy(hit)
        moves = xp.to_numpy(moves)
        # Pair 1: vertical leg ends exactly at y=3, horizontal reaches
        # x=2 after 4 >= 2 moves -> hit after lv + |x| = 5 moves.
        assert list(hit) == [False, True, False, False]
        assert moves[1] == 5

    def test_origin_target_short_circuits(self, xp):
        request = SimulationRequest(
            algorithm=AlgorithmSpec.algorithm1(8), n_agents=2,
            target=(0, 0), move_budget=1000, n_trials=5, seed=1,
        )
        rng = xp.rng(request.trial_seed(0))
        best, finder, iters, rounds = (
            xp.to_numpy(a) for a in run_family(xp, rng, request, 5)
        )
        assert (best == 0).all()
        assert (iters == 0).all()


def test_geometric_distribution_parity():
    """The torch inverse-CDF geometric matches NumPy's sampler (KS)."""
    torch = pytest.importorskip("torch")
    del torch
    torch_ns = torch_namespace("cpu")
    numpy_draws = numpy_namespace().rng(np.random.SeedSequence(3)).geometric(
        0.125, size=4000
    )
    torch_draws = torch_ns.to_numpy(
        torch_ns.rng(np.random.SeedSequence(3)).geometric(0.125, size=4000)
    )
    assert numpy_draws.min() >= 1 and torch_draws.min() >= 1
    statistic = ks_statistic(
        numpy_draws.astype(float), torch_draws.astype(float)
    )
    assert statistic <= ks_two_sample_threshold(4000, 4000, alpha=0.01)
